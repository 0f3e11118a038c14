package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Sinks that keep the floor's pieces alive, so they escape as the
// result's do.
var (
	idsSink   []cdfg.NodeID
	guardSink []sim.Guard
)

// TestScheduleAllocationsDoNotGrowWithTheGraph pins a warm Schedule to
// what its result keeps. The pass's working memory comes back from the
// package's free list, and each piece of the result takes one allocation
// of its exact size, so cordic and a 150-op generated design, both power
// managed, cost the same count. That count is no more than building the
// pieces directly: the fork with its control edges (and, in the
// scheduler, its scheduling adjacency), the managed muxes, their gated
// sets, the guard map and its lists, the minimized schedule and the
// result.
func TestScheduleAllocationsDoNotGrowWithTheGraph(t *testing.T) {
	cfg := gen.Default()
	cfg.Ops = 150
	big := compile(t, gen.Source(7, cfg))
	cordic := bench.Cordic().Graph()
	if big.NumNodes() <= cordic.NumNodes() {
		t.Fatalf("generated design has %d nodes, want more than cordic's %d", big.NumNodes(), cordic.NumNodes())
	}
	measure := func(g *cdfg.Graph, extra int) (got, floor float64) {
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		sc := Config{Budget: cp + extra, Weights: power.Weights}
		r, err := Schedule(g, sc)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumManaged() == 0 || r.Graph == g {
			t.Fatalf("%s: nothing managed; the guard needs a power-managed schedule", g.Name)
		}
		got = testing.AllocsPerRun(20, func() {
			r, err := Schedule(g, sc)
			if err != nil {
				t.Fatal(err)
			}
			resultSink = r
		})

		w, err := sched.AnalyzeWindow(r.Graph, sc.Budget)
		if err != nil {
			t.Fatal(err)
		}
		ids, guards := 0, 0
		for _, m := range r.Managed {
			ids += m.GatedCount()
		}
		for _, gl := range r.Guards {
			guards += len(gl)
		}
		floor = testing.AllocsPerRun(20, func() {
			f := g.Fork()
			if err := f.AddControlEdges(r.Graph.ControlEdges()); err != nil {
				t.Fatal(err)
			}
			managed := make([]ManagedMux, len(r.Managed))
			idsSink = make([]cdfg.NodeID, ids)
			gm := make(sim.Guards, len(r.Guards))
			guardSink = make([]sim.Guard, guards)
			s, res, err := sched.MinimizeWithin(f, sc.Budget, sc.Budget, w)
			if err != nil {
				t.Fatal(err)
			}
			resultSink = &Result{Graph: f, Schedule: s, Resources: res, Managed: managed, Guards: gm}
		})
		t.Logf("%s: %d nodes, %d managed muxes, %d gated ops: %v allocations per call, floor %v",
			g.Name, g.NumNodes(), r.NumManaged(), len(r.Guards), got, floor)
		return got, floor
	}
	small, smallFloor := measure(cordic, 4)
	large, largeFloor := measure(big, 2)
	if small != large {
		t.Errorf("Schedule allocates %v on cordic and %v on the generated design, want the same count", small, large)
	}
	if small > smallFloor || large > largeFloor {
		t.Errorf("Schedule allocates %v and %v, more than its results' %v and %v", small, large, smallFloor, largeFloor)
	}
}
