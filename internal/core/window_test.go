package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
)

// namedGraph is one input of the window oracle.
type namedGraph struct {
	name string
	g    *cdfg.Graph
}

// reselectSrc nests a mux on the outer mux's own select inside its true
// input, so the select lies in a data cone: it must stay ungated.
const reselectSrc = `
func reselect(a: num<8>, b: num<8>) o: num<8> =
begin
    c = a > b;
    d = a - b;
    e = b - a;
    o = if c -> (if c -> d || e fi) || (a + b) fi;
end
`

// oracleGraphs returns the paper circuits, absdiff, the extra circuits,
// reselect and n generated designs of the default profile.
func oracleGraphs(t *testing.T, n int) []namedGraph {
	t.Helper()
	var out []namedGraph
	for _, c := range append(append(bench.All(), bench.AbsDiff()), bench.Extras()...) {
		out = append(out, namedGraph{c.Name, c.Graph()})
	}
	out = append(out, namedGraph{"reselect", compile(t, reselectSrc)})
	cfg := gen.Default()
	for seed := int64(1); seed <= int64(n); seed++ {
		out = append(out, namedGraph{fmt.Sprintf("gen%d", seed), compile(t, gen.Source(seed, cfg))})
	}
	return out
}

// checkPassWindow runs the selection loop of the pass over g under budget
// in the given order and checks every batch, committed or rejected,
// against a from-scratch computation. The pass's window must equal
// sched.AnalyzeWindow on a clone of g carrying the committed edges. Each
// mux's gated sets must equal the reference derivation's. A managed mux
// must have added exactly the reference batch's edges and left the graph
// feasible; a rejected mux must have added none, and the reference batch
// must be infeasible. The pass must never write g: its result's graph is
// g itself when no mux was managed and a fork carrying the committed
// edges otherwise. It returns the pass's error, if any.
func checkPassWindow(t testing.TB, g *cdfg.Graph, budget int, order []cdfg.NodeID) error {
	t.Helper()
	w, err := sched.AnalyzeWindow(g, budget)
	if err != nil || !w.Feasible() {
		t.Fatalf("budget %d: infeasible input (%v)", budget, err)
	}
	inputEdges := slices.Clone(g.ControlEdges())
	defer func() {
		if !slices.Equal(g.ControlEdges(), inputEdges) {
			t.Errorf("budget %d: the pass wrote its input graph's control edges", budget)
		}
	}()
	p := newPass(g, true)
	defer p.release()
	p.window = w
	// committed is g with the edges the pass has committed so far.
	committed := func() *cdfg.Graph {
		c := g.Fork()
		if p.hasWin {
			if err := c.AddControlEdges(p.win.edges); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	managed := false
	for _, m := range order {
		work := committed()
		refTrue, refFalse := referenceGatedSets(work, m)
		before := slices.Clone(work.ControlEdges())
		tent := tentative(work, m, refTrue, refFalse)
		stepErr := p.step(m)
		work = committed()

		want, err := sched.AnalyzeWindow(work, budget)
		if err != nil {
			t.Fatalf("mux %d: committed graph: %v", m, err)
		}
		if !slices.Equal(p.window.ASAP, want.ASAP) || !slices.Equal(p.window.ALAP, want.ALAP) {
			t.Fatalf("mux %d: window\n asap %v\n alap %v\nwant\n asap %v\n alap %v",
				m, p.window.ASAP, p.window.ALAP, want.ASAP, want.ALAP)
		}
		if p.hasWin && (!slices.Equal(p.win.base.ASAP, want.ASAP) || !slices.Equal(p.win.base.ALAP, want.ALAP)) {
			t.Fatalf("mux %d: committed window differs from the analysis", m)
		}
		if stepErr != nil {
			if _, err := sched.AnalyzeWindow(tent, budget); err == nil {
				t.Fatalf("mux %d: pass failed with %v, but its batch closes no cycle", m, stepErr)
			}
			return stepErr
		}
		rep := p.res.reports[len(p.res.reports)-1]
		if !slices.Equal(rep.GatedTrue, refTrue.Sorted()) || !slices.Equal(rep.GatedFalse, refFalse.Sorted()) {
			t.Fatalf("mux %d: gated sets %v/%v, reference %v/%v",
				m, rep.GatedTrue, rep.GatedFalse, refTrue.Sorted(), refFalse.Sorted())
		}
		switch rep.Verdict {
		case VerdictManaged:
			managed = true
			if !slices.Equal(work.ControlEdges(), tent.ControlEdges()) {
				t.Fatalf("mux %d: committed edges %v, reference %v", m, work.ControlEdges(), tent.ControlEdges())
			}
			if !want.Feasible() {
				t.Fatalf("mux %d: committed an infeasible batch", m)
			}
		case VerdictNoSlack:
			if !slices.Equal(work.ControlEdges(), before) {
				t.Fatalf("mux %d: a rejected batch changed the edges", m)
			}
			if tw, err := sched.AnalyzeWindow(tent, budget); err != nil || tw.Feasible() {
				t.Fatalf("mux %d: rejected a feasible batch (%v)", m, err)
			}
		case VerdictNothingToGate:
			if len(refTrue)+len(refFalse) != 0 || !slices.Equal(work.ControlEdges(), before) {
				t.Fatalf("mux %d: nothing to gate, but reference sets %v/%v", m, refTrue.Sorted(), refFalse.Sorted())
			}
		}
	}
	if err := p.finish(); err != nil {
		t.Fatal(err)
	}
	if got := p.res.graph; (got == g) == managed || !slices.Equal(got.ControlEdges(), committed().ControlEdges()) {
		t.Fatalf("result graph is the input: %v, with edges %v; a mux managed: %v, committed edges %v",
			got == g, got.ControlEdges(), managed, committed().ControlEdges())
	}
	return nil
}

// muxOrder returns the pass's processing order of g's muxes under cfg.
func muxOrder(t testing.TB, g *cdfg.Graph, cfg Config) []cdfg.NodeID {
	t.Helper()
	p := newPass(g, false)
	defer p.release()
	if err := p.orderMuxes(cfg); err != nil {
		t.Fatal(err)
	}
	return slices.Clone(p.order)
}

// tentative returns a fork of work with mux m's batch for the given gated
// sets added from scratch: its select before every top of each set, true
// branch first, skipping edges work already has.
func tentative(work *cdfg.Graph, m cdfg.NodeID, sets ...cdfg.NodeSet) *cdfg.Graph {
	c := work.Fork()
	sel := c.Node(m).Args[cdfg.MuxSel]
	for _, set := range sets {
		for _, top := range GatedTops(c, set) {
			if !c.HasControlEdge(sel, top) {
				if err := c.AddControlEdge(sel, top); err != nil {
					panic(err)
				}
			}
		}
	}
	return c
}

// referenceGatedSets derives mux m's gated sets from their definition (see
// gateDeriver): fanin cones as sets, then an iterative pruning of every
// candidate with a successor outside the candidates and m, then the
// operations only.
func referenceGatedSets(g *cdfg.Graph, m cdfg.NodeID) (trueSet, falseSet cdfg.NodeSet) {
	args := g.Node(m).Args
	coneSel := g.TransitiveFanin(args[cdfg.MuxSel])
	coneT := g.TransitiveFanin(args[cdfg.MuxTrue])
	coneF := g.TransitiveFanin(args[cdfg.MuxFalse])
	gateable := func(cone, other cdfg.NodeSet) cdfg.NodeSet {
		cand := make(cdfg.NodeSet)
		for id := range cone {
			n := g.Node(id)
			if !coneSel.Contains(id) && !other.Contains(id) && (n.IsOp() || n.Class() == cdfg.ClassWire) {
				cand[id] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for id := range cand {
				for _, s := range g.Succs(id) {
					if s != m && !cand.Contains(s) {
						delete(cand, id)
						changed = true
						break
					}
				}
			}
		}
		out := make(cdfg.NodeSet)
		for id := range cand {
			if g.Node(id).IsOp() {
				out[id] = true
			}
		}
		return out
	}
	return gateable(coneT, coneF), gateable(coneF, coneT)
}

// checkAllOrders runs checkPassWindow at budgets cp..cp+3 under the three
// single-order strategies.
func checkAllOrders(t testing.TB, g *cdfg.Graph) {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	for budget := cp; budget <= cp+3; budget++ {
		for _, o := range []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight} {
			order := muxOrder(t, g, Config{Budget: budget, Order: o, Weights: power.Weights})
			if err := checkPassWindow(t, g, budget, order); err != nil {
				t.Fatalf("budget %d order %v: %v", budget, o, err)
			}
		}
	}
}

// TestRunPassWindowMatchesAnalysis is the differential oracle for the
// incremental feasibility test.
func TestRunPassWindowMatchesAnalysis(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for _, ng := range oracleGraphs(t, n) {
		t.Run(ng.name, func(t *testing.T) { checkAllOrders(t, ng.g) })
	}
}

// FuzzRunPassWindow runs the differential window oracle over the
// generator's knobs.
func FuzzRunPassWindow(f *testing.F) {
	f.Add(int64(11), byte(16), byte(3), byte(4))
	f.Add(int64(3), byte(20), byte(2), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, ops, depth, fanin byte) {
		cfg := gen.Default()
		cfg.Ops = int(ops % 32)
		cfg.Depth = int(depth % 5)
		cfg.MuxFanIn = int(fanin % 6)
		checkAllOrders(t, compile(t, gen.Source(seed, cfg)))
	})
}

// TestRunPassCycleError: a caller's control edge from a gated top to the
// select makes the pass's serializing edge close a cycle, which fails
// Schedule with the scheduling graph's cycle error.
func TestRunPassCycleError(t *testing.T) {
	g := compile(t, absDiffSrc)
	if err := g.AddControlEdge(g.Lookup("d1"), g.Lookup("g")); err != nil {
		t.Fatal(err)
	}
	_, err := Schedule(g, Config{Budget: 5})
	if !errors.Is(err, cdfg.ErrCycle) || err.Error() != "cdfg: graph contains a cycle" {
		t.Fatalf("Schedule error = %v, want the cycle error", err)
	}
	if _, err := Explain(g, Config{Budget: 5}); !errors.Is(err, cdfg.ErrCycle) {
		t.Fatalf("Explain error = %v, want the cycle error", err)
	}
	if err := checkPassWindow(t, g, 5, g.Muxes()); !errors.Is(err, cdfg.ErrCycle) {
		t.Fatalf("pass error = %v, want the cycle error", err)
	}
}

// TestFeasibilityBatchAllocatesNothing pins the per-mux cost: once its
// buffers are warm, deriving a mux's gated sets and testing and rolling
// back its batch allocates nothing.
func TestFeasibilityBatchAllocatesNothing(t *testing.T) {
	g := bench.Cordic().Graph()
	for _, budget := range []int{bench.Cordic().Budgets[0], 52} {
		w, err := sched.AnalyzeWindow(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		order := muxOrder(t, g, Config{Budget: budget})
		p := newPass(g.Fork(), false)
		p.window = w
		batches := 0
		for _, m := range order {
			sel := g.Node(m).Args[cdfg.MuxSel]
			if p.hasGates && p.hasWin {
				allocs := testing.AllocsPerRun(20, func() {
					p.gates.derive(m)
					if _, err := p.win.test(sel, p.gates.tops); err != nil {
						t.Fatal(err)
					}
					p.win.rollback()
				})
				if allocs != 0 {
					t.Errorf("budget %d mux %d: %v allocations per batch, want 0", budget, m, allocs)
				}
				batches++
			}
			if err := p.step(m); err != nil {
				t.Fatal(err)
			}
		}
		p.release()
		if batches == 0 {
			t.Fatalf("budget %d: no batch measured", budget)
		}
	}
}

// resultSink keeps measured results alive, so they escape as Schedule's
// results do.
var resultSink *Result

// TestScheduleConditionalFreeAllocs: on a design without conditionals the
// pass builds neither its deriver nor its window, and its working memory
// is reused, so Schedule allocates no more than the flow it cannot avoid:
// the guards map, the minimized schedule and the result.
func TestScheduleConditionalFreeAllocs(t *testing.T) {
	cfg := gen.Default()
	cfg.Ops = 150
	cfg.MuxFanIn = 1
	g := compile(t, gen.Source(1, cfg))
	if len(g.Muxes()) != 0 {
		t.Fatal("design has multiplexors")
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	sc := Config{Budget: cp + 1, Weights: power.Weights}
	got := testing.AllocsPerRun(10, func() {
		r, err := Schedule(g, sc)
		if err != nil {
			t.Fatal(err)
		}
		resultSink = r
	})
	floor := testing.AllocsPerRun(10, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		guards := make(sim.Guards)
		s, res, err := sched.Minimize(g, sc.Budget, sc.Budget)
		if err != nil {
			t.Fatal(err)
		}
		resultSink = &Result{Graph: g, Schedule: s, Resources: res, Guards: guards}
	})
	t.Logf("Schedule: %v allocations per call; floor %v", got, floor)
	if got > floor {
		t.Errorf("Schedule allocates %v per call on a conditional-free design, want at most %v", got, floor)
	}
}
