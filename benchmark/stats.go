package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A tail read off fewer samples is a single outlier, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]) and
// how many samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// validate applies the invalid-run rules to a measured load: no request
// failed or was refused, since every workload is sized so that none do and
// a quick refusal would otherwise read as cheap, fast work; the median
// latency has minBeyond samples beyond it; and the peak RSS was read at its
// fixed request count, not at the end of a load that fell short of it.
//
// The open-loop generator's lag is reported, not held to a limit: latency
// runs from each request's due time, so a late send is counted, never
// hidden. At 150 requests/s the generator is idle nearly all the time, and
// its lag p99, about 1 ms on a quiet host, reached 22-31 ms only while
// the hypervisor stole the VM's CPUs; a limit would fail those runs for
// the host's sake.
func validate(l *loadResult) error {
	if l.failed > 0 {
		return fmt.Errorf("%d of %d requests failed, the first with: %v", l.failed, l.attempted, l.firstErr)
	}
	if _, beyond := percentile(l.latMs, 0.5); beyond < minBeyond {
		return fmt.Errorf("the median latency has %d samples beyond it, want at least %d (%d requests)",
			beyond, minBeyond, len(l.latMs))
	}
	if l.rssLate > 0 {
		return fmt.Errorf("%d daemons finished their load before the request count their peak RSS is read after", l.rssLate)
	}
	return nil
}
