package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/client"
)

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{160, 0.5, 80, 80},
		{1, 0.99, 1, 0},
	}
	for _, c := range cases {
		// Reversed input: percentile must not depend on the order.
		xs := ramp(c.n)
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		got, beyond := percentile(xs, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of 1..%d = %g with %d beyond, want %g with %d", 100*c.q, c.n, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, b)
	}
}

// The end-to-end values cover the whole load, CPU time per request counts
// the successful requests alone (9 s of daemon CPU over 90 of 100), and
// setup_s is the median start's CPU time, not its wall time.
func TestEndToEndValuesCoverTheWholeLoad(t *testing.T) {
	l := &loadResult{latMs: ramp(90), attempted: 100, failed: 10, elapsed: 3 * time.Second, cpu: 9 * time.Second,
		rss: []float64{30, 10, 20}}
	got := endToEndValues(l, []startup{
		{wall: time.Second, cpu: 3 * time.Millisecond},
		{wall: time.Second, cpu: time.Millisecond},
		{wall: time.Second, cpu: 2 * time.Millisecond},
	})
	want := map[string]float64{"setup_s": 0.002, "cpu_ms_per_req": 100, "rss_peak_mb": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}

func TestValidateRejectsThinMedians(t *testing.T) {
	// The median of n samples has n-ceil(n/2) beyond it, so 20 requests
	// are the fewest allowed.
	for n, ok := range map[int]bool{20: true, 19: false} {
		if err := validate(&loadResult{latMs: ramp(n), attempted: n}); (err == nil) != ok {
			t.Errorf("%d requests: validate = %v", n, err)
		}
	}
}

func TestValidateRejectsFailures(t *testing.T) {
	l := &loadResult{latMs: ramp(159), attempted: 160, failed: 1, firstErr: errors.New("pmsynthd: 429 Too Many Requests")}
	if err := validate(l); err == nil {
		t.Error("a load with a refused request validated")
	}
}

// A load that ends before its RSS count is invalid: its peak RSS would be
// read after fewer requests, so a slower daemon would read as a leaner one.
func TestValidateRejectsLateRSS(t *testing.T) {
	if err := validate(&loadResult{latMs: ramp(100), attempted: 100, rssLate: 1}); err == nil {
		t.Error("a load whose peak RSS was read late validated")
	}
}

// TestRSSIsReadAtItsCount drives a loader whose daemon process is the test
// itself, against an address nothing listens on: the peak RSS is read when
// the count is reached, and a load that ends short of it reads late.
func TestRSSIsReadAtItsCount(t *testing.T) {
	list := &requestList{reqs: []Request{{Kind: "synth"}, {Kind: "synth"}, {Kind: "synth"}}}
	self := &daemon{cmd: &exec.Cmd{Process: &os.Process{Pid: os.Getpid()}}}
	for _, c := range []struct {
		after, sent int
		atCount     bool
		late        bool
	}{{2, 3, true, false}, {3, 3, true, false}, {4, 3, false, true}, {0, 3, false, false}} {
		l := &loader{c: client.New("http://127.0.0.1:1", client.WithRetries(0, 0)), list: list, d: self, rssAfter: int64(c.after)}
		for i := 0; i < c.sent; i++ {
			l.do(context.Background(), i, time.Time{})
		}
		if (l.rss > 0) != c.atCount {
			t.Errorf("count %d after %d requests: rss %g read at the count, want %v", c.after, c.sent, l.rss, c.atCount)
		}
		if late := l.endRSS(); late != c.late || l.rss <= 0 || l.rssErr != nil {
			t.Errorf("count %d after %d requests: late %v, rss %g, err %v; want late %v", c.after, c.sent, late, l.rss, l.rssErr, c.late)
		}
	}
}

func TestFoldCountsRefusalsAsFailures(t *testing.T) {
	reqs := []Request{
		{Kind: "synth", Source: "a", Budget: 1},
		{Kind: "synth", Source: "b", Budget: 1},
		{Kind: "synth", Source: "a", Budget: 1},
		{Kind: "synth", Source: "c", Budget: 1},
	}
	outs := []outcome{
		{done: true, latency: time.Millisecond, served: "x"},
		{done: true, err: errors.New("pmsynthd: 429 Too Many Requests")},
		{done: true, latency: 3 * time.Millisecond, served: "y"}, // same key as 0, other answer
		{}, // never sent
	}
	res := &loadResult{served: make(map[string]string)}
	res.fold(reqs, outs, false)
	if res.attempted != 3 || res.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 3 and 1", res.attempted, res.failed)
	}
	if len(res.latMs) != 2 {
		t.Errorf("%d latencies, want the 2 successful requests", len(res.latMs))
	}
	if len(res.conflicts) != 1 {
		t.Errorf("conflicts %v, want the key answered twice differently", res.conflicts)
	}
}

func TestFoldFlagsFlowRunsUnderRestarts(t *testing.T) {
	reqs := []Request{{Kind: "synth", Source: "a"}, {Kind: "synth", Source: "b"}}
	outs := []outcome{{done: true, cached: true}, {done: true}}
	res := &loadResult{served: make(map[string]string)}
	res.fold(reqs, outs, true)
	if res.uncached != 1 {
		t.Errorf("uncached = %d, want 1", res.uncached)
	}
}

func TestHostTicks(t *testing.T) {
	h, err := readHostTicks()
	if err != nil || h.busy <= 0 || h.idle < 0 || h.iowait < 0 || h.steal < 0 {
		t.Fatalf("readHostTicks = %+v, %v", h, err)
	}
	sum := hostTicks{1, 1, 1, 1}.add(hostTicks{1, 2, 3, 4}, hostTicks{11, 22, 33, 44})
	if sum != (hostTicks{11, 21, 31, 41}) {
		t.Errorf("add = %+v", sum)
	}
}
