package sched_test

import (
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

// TestListAllocationsDoNotGrowWithTheGraph pins the list scheduler to a
// fixed number of allocations per call: its working memory is sized once from
// the op count and reused across Minimize's attempts, so cordic and a
// 150-op generated design cost the same count, whatever their step counts
// and retries.
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
	const ceiling = 12
	if smallMin != largeMin || smallMin > ceiling {
		t.Errorf("Minimize allocates %v on cordic and %v on the generated design, want the same count of at most %d", smallMin, largeMin, ceiling)
	}
	if smallList != largeList || smallList > ceiling {
		t.Errorf("List allocates %v on cordic and %v on the generated design, want the same count of at most %d", smallList, largeList, ceiling)
	}
}
