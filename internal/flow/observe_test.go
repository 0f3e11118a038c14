package flow

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
)

// TestRunAllObserved: the observer fires exactly once per configuration
// with its input index, and observation changes nothing about the
// artifacts.
func TestRunAllObserved(t *testing.T) {
	d := compile(t)
	var cfgs []core.Config
	for b := 2; b <= 5; b++ {
		cfgs = append(cfgs, core.Config{Budget: b, Weights: power.Weights})
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	ctxs, err := RunAllPipelineObserved(context.Background(), nil, d.Graph, d.Width, cfgs, 2,
		func(i int, fc *Context) {
			mu.Lock()
			defer mu.Unlock()
			seen[i]++
			if fc == nil || fc.Config.Budget != cfgs[i].Budget {
				t.Errorf("observer %d: wrong context %+v", i, fc)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("observed %d configs, want %d", len(seen), len(cfgs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("config %d observed %d times", i, n)
		}
	}

	plain, err := RunAllPipeline(context.Background(), nil, d.Graph, d.Width, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctxs {
		if ctxs[i].PM.Schedule.String() != plain[i].PM.Schedule.String() {
			t.Fatalf("config %d: observed run diverges from plain run", i)
		}
	}
}
