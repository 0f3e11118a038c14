package server

// White-box test of the dedup index's prune walk.

import (
	"context"
	"fmt"
	"testing"

	"repro"
)

// TestSweepIndexStaysBounded: the index entries TTL-collected jobs leave
// behind are walked away rarely, not on every submission, and never let
// the index outgrow twice its live entries plus 32.
func TestSweepIndexStaysBounded(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const src = `func inc(a: num<8>) out: num<8> = begin out = a + 1; end`
	spec := pmsynth.SweepSpec{Budgets: []int{1}}
	const collected, live = 1000, 1
	size := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.sweepByFP)
	}
	walks := 0
	for i := 0; i < collected; i++ {
		// A TTL-collected job leaves an entry naming a job the manager
		// no longer has.
		s.mu.Lock()
		s.sweepByFP[fmt.Sprintf("collected-%d", i)] = fmt.Sprintf("gone-%d", i)
		s.mu.Unlock()
		before := size()
		if out := s.admitSweep(context.Background(), src, spec, rtl{}); out.status >= 300 {
			t.Fatalf("submission %d: %d %s", i, out.status, out.errMsg)
		}
		after := size()
		if after < before {
			walks++
		}
		if after > 2*live+32 {
			t.Fatalf("after %d collected jobs the index holds %d entries for %d live job, want at most %d",
				i+1, after, live, 2*live+32)
		}
	}
	if walks > collected/16 {
		t.Fatalf("%d submissions walked the index %d times, want at most %d", collected, walks, collected/16)
	}
}
