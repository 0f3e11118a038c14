package flow

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sched"
)

// sweepCfgs is a small budget ladder for the cache tests.
func sweepCfgs() []core.Config {
	return []core.Config{
		{Budget: 3, Weights: power.Weights},
		{Budget: 4, Weights: power.Weights},
		{Budget: 5, Weights: power.Weights},
	}
}

func TestPointCacheHitsOnRepeatSweep(t *testing.T) {
	ResetPointCache()
	d := compile(t)
	cfgs := sweepCfgs()

	first, err := RunAll(context.Background(), d.Graph, d.Width, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := PointCacheStats()
	if st.Misses != int64(len(cfgs)) {
		t.Fatalf("after cold sweep: misses = %d, want %d (stats %+v)", st.Misses, len(cfgs), st)
	}
	if st.Entries != int64(len(cfgs)) {
		t.Fatalf("after cold sweep: entries = %d, want %d", st.Entries, len(cfgs))
	}

	second, err := RunAll(context.Background(), d.Graph, d.Width, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	st = PointCacheStats()
	if st.Hits != int64(len(cfgs)) {
		t.Fatalf("after warm sweep: hits = %d, want %d (stats %+v)", st.Hits, len(cfgs), st)
	}
	for i := range cfgs {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("config %d: errs %v / %v", i, first[i].Err, second[i].Err)
		}
		if second[i] != first[i] {
			t.Errorf("config %d: warm sweep returned a different Context than the cached one", i)
		}
		if second[i].Ctx != nil {
			t.Errorf("config %d: cached Context retains a cancellation context", i)
		}
		if a, b := first[i].PM.Schedule.String(), second[i].PM.Schedule.String(); a != b {
			t.Errorf("config %d: schedules differ:\n%s\nvs\n%s", i, a, b)
		}
	}
}

func TestPointCacheKeyDiscriminates(t *testing.T) {
	d := compile(t)
	g := d.Graph
	base := core.Config{Budget: 3, Weights: power.Weights}
	keys := map[string]string{}
	add := func(name, key string) {
		if prev, ok := keys[key]; ok {
			t.Fatalf("key collision between %s and %s: %q", prev, name, key)
		}
		keys[key] = name
	}
	add("base", pointKey("std", g, d.Width, base))
	add("pipeline", pointKey("std,optimal-schedule", g, d.Width, base))
	add("width", pointKey("std", g, d.Width+1, base))

	budget := base
	budget.Budget = 4
	add("budget", pointKey("std", g, d.Width, budget))

	ii := base
	ii.II = 2
	add("ii", pointKey("std", g, d.Width, ii))

	order := base
	order.Order = core.Order(1)
	add("order", pointKey("std", g, d.Width, order))

	res := base
	res.Resources = sched.Resources{cdfg.ClassAdd: 1}
	add("resources", pointKey("std", g, d.Width, res))

	noWeights := base
	noWeights.Weights = nil
	add("noweights", pointKey("std", g, d.Width, noWeights))

	// A structurally different graph must change the key even with an
	// identical config.
	g2 := g.Clone()
	if err := g2.AddControlEdge(g2.Muxes()[0], g2.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
	add("graph", pointKey("std", g2, d.Width, base))
}

func TestPointCacheDisabledRunsDirectly(t *testing.T) {
	SetPointCacheCapacity(0)
	defer SetPointCacheCapacity(DefaultPointCacheEntries)

	d := compile(t)
	cfgs := sweepCfgs()[:1]
	out1, err := RunAll(context.Background(), d.Graph, d.Width, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := RunAll(context.Background(), d.Graph, d.Width, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out1[0] == out2[0] {
		t.Fatal("disabled cache still returned a shared Context")
	}
	if st := PointCacheStats(); st != (cache.Stats{}) {
		t.Fatalf("disabled cache reports nonzero stats: %+v", st)
	}
}
