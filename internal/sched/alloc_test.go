package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/silage"
)

// pmGraph returns the power-managed graph core.Schedule builds for g at
// budget cp+extra, requiring at least one committed control edge.
func pmGraph(t *testing.T, g *cdfg.Graph, extra int) (*cdfg.Graph, int) {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(g, core.Config{Budget: cp + extra, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Graph.ControlEdges()) == 0 {
		t.Fatalf("%s: no control edge committed; the guard needs a managed graph", g.Name)
	}
	return r.Graph, cp + extra
}

// TestAnalyzeWindowAllocationsDoNotGrowWithTheGraph pins the precedence
// walks allocation-free: on a warm power-managed graph, AnalyzeWindow
// allocates its two result vectors and nothing per node or per control
// edge, so cordic and a 150-op generated design cost the same count.
func TestAnalyzeWindowAllocationsDoNotGrowWithTheGraph(t *testing.T) {
	cordic, cordicBudget := pmGraph(t, bench.Cordic().Graph(), 4)

	cfg := gen.Default()
	cfg.Ops = 150
	d, err := silage.Compile(gen.Source(7, cfg))
	if err != nil {
		t.Fatal(err)
	}
	big, bigBudget := pmGraph(t, d.Graph, 2)
	if big.NumNodes() <= cordic.NumNodes() {
		t.Fatalf("generated design has %d nodes, want more than cordic's %d", big.NumNodes(), cordic.NumNodes())
	}

	allocs := func(g *cdfg.Graph, budget int) float64 {
		if _, err := sched.AnalyzeWindow(g, budget); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sched.AnalyzeWindow(g, budget); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(cordic, cordicBudget), allocs(big, bigBudget)
	t.Logf("AnalyzeWindow allocations: cordic %v (%d nodes, %d edges), generated %v (%d nodes, %d edges)",
		small, cordic.NumNodes(), len(cordic.ControlEdges()), large, big.NumNodes(), len(big.ControlEdges()))
	if small != large || small > 2 {
		t.Errorf("AnalyzeWindow allocates %v on cordic and %v on the generated design, want the same count of at most 2", small, large)
	}
}

// TestListAllocationsDoNotGrowWithTheGraph pins the list scheduler to what
// a warm call returns: its working memory is reused across Minimize's
// attempts and, through the package's free list, across calls, so cordic
// and a 150-op generated design cost the same count, whatever their step
// counts and retries. List allocates the schedule and its time vector;
// Minimize adds the resource map.
func TestListAllocationsDoNotGrowWithTheGraph(t *testing.T) {
	cordic, cordicBudget := pmGraph(t, bench.Cordic().Graph(), 4)

	cfg := gen.Default()
	cfg.Ops = 150
	d, err := silage.Compile(gen.Source(7, cfg))
	if err != nil {
		t.Fatal(err)
	}
	big, bigBudget := pmGraph(t, d.Graph, 2)
	if big.NumNodes() <= cordic.NumNodes() {
		t.Fatalf("generated design has %d nodes, want more than cordic's %d", big.NumNodes(), cordic.NumNodes())
	}

	// allocs measures Minimize and then List with the bag Minimize found.
	allocs := func(g *cdfg.Graph, budget int) (minimize, list float64) {
		_, res, err := sched.Minimize(g, budget, budget)
		if err != nil {
			t.Fatal(err)
		}
		minimize = testing.AllocsPerRun(20, func() {
			if _, _, err := sched.Minimize(g, budget, budget); err != nil {
				t.Fatal(err)
			}
		})
		list = testing.AllocsPerRun(20, func() {
			if _, err := sched.List(g, budget, budget, res); err != nil {
				t.Fatal(err)
			}
		})
		return minimize, list
	}
	smallMin, smallList := allocs(cordic, cordicBudget)
	largeMin, largeList := allocs(big, bigBudget)
	t.Logf("Minimize allocations: cordic %v, generated %v; List: cordic %v, generated %v",
		smallMin, largeMin, smallList, largeList)
	const minimizeCeiling, listCeiling = 4, 2
	if smallMin != largeMin || smallMin > minimizeCeiling {
		t.Errorf("Minimize allocates %v on cordic and %v on the generated design, want the same count of at most %d", smallMin, largeMin, minimizeCeiling)
	}
	if smallList != largeList || smallList > listCeiling {
		t.Errorf("List allocates %v on cordic and %v on the generated design, want the same count of at most %d", smallList, largeList, listCeiling)
	}
}

// TestMinimizeWithinMatchesMinimize: handed the window Minimize would
// compute, MinimizeWithin schedules identically, and allocates no more.
// It rejects a window that does not cover the graph.
func TestMinimizeWithinMatchesMinimize(t *testing.T) {
	g, budget := pmGraph(t, bench.Cordic().Graph(), 4)
	w, err := sched.AnalyzeWindow(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes, err := sched.Minimize(g, budget, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, gotRes, err := sched.MinimizeWithin(g, budget, budget, w)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Time, want.Time) || gotRes.String() != wantRes.String() {
		t.Fatalf("MinimizeWithin gave %v with %v, Minimize %v with %v", got.Time, gotRes, want.Time, wantRes)
	}
	within := testing.AllocsPerRun(20, func() {
		if _, _, err := sched.MinimizeWithin(g, budget, budget, w); err != nil {
			t.Fatal(err)
		}
	})
	minimize := testing.AllocsPerRun(20, func() {
		if _, _, err := sched.Minimize(g, budget, budget); err != nil {
			t.Fatal(err)
		}
	})
	if within > minimize {
		t.Errorf("MinimizeWithin allocates %v, Minimize %v", within, minimize)
	}
	short := sched.Window{ASAP: w.ASAP[1:], ALAP: w.ALAP[1:]}
	if _, _, err := sched.MinimizeWithin(g, budget, budget, short); err == nil {
		t.Error("MinimizeWithin accepted a window one node short")
	}
}

// TestWindowComputeMatchesAnalyzeWindow is the property behind the
// walk-free window: on generated graphs without control edges, ASAP is the
// memoized depth and ALAP the budget less the memoized height plus the
// node's latency, equal to what AnalyzeWindow's topological walks compute,
// at budgets below, at and above the critical path. On the power-managed
// graphs, which carry control edges, Compute walks, and a window reused
// from graph to graph of any size still matches, with no allocation once
// its vectors are large enough.
func TestWindowComputeMatchesAnalyzeWindow(t *testing.T) {
	var w sched.Window
	check := func(name string, g *cdfg.Graph, budget int) {
		t.Helper()
		want, err := sched.AnalyzeWindow(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Compute(g, budget); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.ASAP, want.ASAP) || !slices.Equal(w.ALAP, want.ALAP) {
			t.Fatalf("%s at budget %d: Compute\n asap %v\n alap %v\nAnalyzeWindow\n asap %v\n alap %v",
				name, budget, w.ASAP, w.ALAP, want.ASAP, want.ALAP)
		}
	}
	profiles := []func(*gen.Config){
		func(*gen.Config) {},
		func(c *gen.Config) { c.Ops = 150; c.MuxFanIn = 1 },
		func(c *gen.Config) { c.Ops = 60; c.Depth = 4 },
	}
	graphs := 0
	for i, profile := range profiles {
		cfg := gen.Default()
		profile(&cfg)
		for seed := int64(1); seed <= 40; seed++ {
			d, err := silage.Compile(gen.Source(seed, cfg))
			if err != nil {
				t.Fatal(err)
			}
			g := d.Graph
			if len(g.ControlEdges()) != 0 {
				t.Fatal("a compiled design carries control edges")
			}
			cp, err := g.CriticalPath()
			if err != nil {
				t.Fatal(err)
			}
			for budget := max(1, cp-1); budget <= cp+3; budget++ {
				check(fmt.Sprintf("profile %d seed %d", i, seed), g, budget)
			}
			graphs++
		}
	}
	for _, c := range bench.All() {
		g, budget := pmGraph(t, c.Graph(), 2)
		name := c.Name + " managed"
		check(name, g, budget)
		if n := testing.AllocsPerRun(10, func() { check(name, g, budget) }); n > 2 {
			t.Errorf("%s: a warm Compute plus the reference allocates %v, want only the reference's 2", c.Name, n)
		}
	}
	t.Logf("%d generated graphs", graphs)
}
