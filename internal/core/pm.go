package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// passResult is the outcome of one annotate-and-commit sweep over the
// muxes in a fixed order.
type passResult struct {
	graph   *cdfg.Graph
	managed []ManagedMux
	guards  sim.Guards
	// reports holds every mux's verdict and gated sets in processing
	// order, with Detail left empty. A managed mux's report shares its
	// gated sets with its ManagedMux, which the relaxation path may shrink
	// in place, so Explain (which never relaxes) is their only reader.
	reports []MuxReport
}

// pass runs Fig. 3 steps 2-10 over the muxes of one graph. Its deriver and
// feasibility window are built at the first mux that needs them, so a
// graph without anything to gate pays for neither.
//
// The pass reads its input graph and never writes it: the first committed
// batch is the first write, so only then does the pass clone the input,
// and the clone takes that batch's edges and every later one. Until then
// res.graph is the input itself.
type pass struct {
	input  *cdfg.Graph
	res    passResult
	window sched.Window
	gates  *gateDeriver
	win    *passWindow
	// ids backs the recorded gated sets, which are capped sub-slices.
	ids []cdfg.NodeID
}

// newPass prepares a pass over g, whose ASAP/ALAP window under the budget
// is w. The pass takes ownership of w; g stays read-only.
func newPass(g *cdfg.Graph, w sched.Window) *pass {
	return &pass{input: g, res: passResult{graph: g, guards: make(sim.Guards)}, window: w}
}

// runPass executes Fig. 3 steps 2-10 over the muxes of g (whose window
// under the budget is w) in the given order, committing each mux whose
// serialization keeps the budget feasible. The result's graph carries the
// committed control edges: a clone of g, or g itself when nothing was
// committed. w is updated in place.
func runPass(g *cdfg.Graph, order []cdfg.NodeID, w sched.Window) (passResult, error) {
	p := newPass(g, w)
	for _, m := range order {
		if err := p.step(m); err != nil {
			return passResult{}, err
		}
	}
	return p.res, nil
}

// step derives m's gated sets, tentatively serializes its select before
// their tops, and keeps the mux if every node still fits the budget.
func (p *pass) step(m cdfg.NodeID) error {
	g := p.res.graph
	if p.gates == nil {
		p.gates = newGateDeriver(g)
	}
	d := p.gates
	d.derive(m)
	rep := MuxReport{Mux: m, Verdict: VerdictNothingToGate}
	if d.empty() {
		p.res.reports = append(p.res.reports, rep)
		return nil
	}
	rep.GatedTrue, rep.GatedFalse = p.keep(d.sets[0]), p.keep(d.sets[1])
	if p.win == nil {
		p.win = newPassWindow(g, p.window)
	}
	sel := g.Node(m).Args[cdfg.MuxSel]
	ok, err := p.win.test(sel, d.tops)
	if err != nil {
		return err
	}
	if !ok {
		// Paper step 7: revert; no PM for this mux at this throughput.
		p.win.rollback()
		rep.Verdict = VerdictNoSlack
		p.res.reports = append(p.res.reports, rep)
		return nil
	}
	if p.res.graph == p.input {
		p.res.graph = p.input.Clone()
	}
	if err := p.win.commit(p.res.graph); err != nil {
		return err
	}
	rep.Verdict = VerdictManaged
	p.res.reports = append(p.res.reports, rep)
	p.res.managed = append(p.res.managed, ManagedMux{
		Mux:        m,
		Sel:        sel,
		GatedTrue:  rep.GatedTrue,
		GatedFalse: rep.GatedFalse,
	})
	for _, id := range rep.GatedTrue {
		addGuard(p.res.guards, id, sim.Guard{Sel: sel, WhenTrue: true})
	}
	for _, id := range rep.GatedFalse {
		addGuard(p.res.guards, id, sim.Guard{Sel: sel, WhenTrue: false})
	}
	return nil
}

// keep copies ids into the pass's backing store and returns the copy, nil
// when ids is empty.
func (p *pass) keep(ids []cdfg.NodeID) []cdfg.NodeID {
	if len(ids) == 0 {
		return nil
	}
	start := len(p.ids)
	p.ids = append(p.ids, ids...)
	return p.ids[start:len(p.ids):len(p.ids)]
}

// addGuard appends a guard unless an identical one is already present: two
// muxes sharing one select can gate overlapping cones, and a repeated
// identical guard must not be double counted by the probability analyses.
func addGuard(gs sim.Guards, id cdfg.NodeID, gd sim.Guard) {
	for _, have := range gs[id] {
		if have == gd {
			return
		}
	}
	gs[id] = append(gs[id], gd)
}

// Schedule runs the full power management scheduling flow on g (paper
// Fig. 3). The input graph is not modified. Result.Graph is g itself when
// no mux was managed and Resources is nil; otherwise it is a clone.
func Schedule(g *cdfg.Graph, cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	ii := cfg.ii()
	if ii < 1 || ii > cfg.Budget {
		return nil, fmt.Errorf("core: initiation interval %d outside [1,%d]", ii, cfg.Budget)
	}
	pr, err := selectPass(g, cfg)
	if err != nil {
		return nil, err
	}

	var s *sched.Schedule
	var res sched.Resources
	if cfg.Resources != nil {
		// Fixed hardware: degrade gating gracefully when the resource
		// constraint makes the fully gated schedule infeasible
		// (paper §II.B's one-subtractor scenario). Relaxation rewrites
		// the graph's control edges, so it works on a clone even when
		// the pass committed nothing.
		res = cfg.Resources.Clone()
		userEdges := append([]cdfg.ControlEdge(nil), g.ControlEdges()...)
		if pr.graph == g {
			pr.graph = g.Clone()
		}
		s, err = scheduleWithRelaxation(&pr, cfg.Budget, ii, res, userEdges, cfg.Weights)
	} else {
		s, res, err = sched.Minimize(pr.graph, cfg.Budget, ii)
	}
	if err != nil {
		return nil, fmt.Errorf("core: final scheduling failed: %w", err)
	}
	return &Result{
		Graph:     pr.graph,
		Schedule:  s,
		Resources: res,
		Managed:   pr.managed,
		Guards:    pr.guards,
		Order:     cfg.Order,
	}, nil
}

// selectPass runs the mux selection loop in the configured order.
// Schedule finishes that pass; Explain reports its verdicts.
func selectPass(g *cdfg.Graph, cfg Config) (passResult, error) {
	if err := g.Validate(); err != nil {
		return passResult{}, err
	}
	// Budget feasibility before any PM constraint. The window and the
	// order only read g; its analysis memo is safe to share.
	w, err := sched.AnalyzeWindow(g, cfg.Budget)
	if err != nil {
		return passResult{}, err
	}
	if !w.Feasible() {
		return passResult{}, fmt.Errorf("core: budget %d below the critical path", cfg.Budget)
	}
	order, err := candidateOrder(g, cfg)
	if err != nil {
		return passResult{}, err
	}
	return runPass(g, order, w)
}

// candidateOrder produces the mux processing order of the configured
// strategy.
func candidateOrder(g *cdfg.Graph, cfg Config) ([]cdfg.NodeID, error) {
	muxes := g.Muxes()
	if len(muxes) == 0 {
		return nil, nil
	}
	height, err := g.HeightToOutput()
	if err != nil {
		return nil, err
	}
	byHeight := func(asc bool) []cdfg.NodeID {
		out := append([]cdfg.NodeID(nil), muxes...)
		slices.SortStableFunc(out, func(a, b cdfg.NodeID) int {
			if ha, hb := height[a], height[b]; ha != hb {
				if asc {
					return cmp.Compare(ha, hb)
				}
				return cmp.Compare(hb, ha)
			}
			return cmp.Compare(a, b)
		})
		return out
	}
	switch cfg.Order {
	case OrderOutputsFirst:
		return byHeight(true), nil
	case OrderInputsFirst:
		return byHeight(false), nil
	case OrderGreedyWeight:
		return greedyWeightOrder(g, muxes, cfg.Weights), nil
	default:
		return nil, fmt.Errorf("core: unknown order strategy %v", cfg.Order)
	}
}

// greedyWeightOrder sorts muxes by decreasing gateable-cone weight, the
// §IV.A pre-processing heuristic. Ties fall back to outputs-first.
func greedyWeightOrder(g *cdfg.Graph, muxes []cdfg.NodeID, weights map[cdfg.Class]float64) []cdfg.NodeID {
	height, err := g.HeightToOutput()
	if err != nil {
		// Callers validated the graph; unreachable in practice.
		height = make([]int, g.NumNodes())
	}
	weightOf := func(set []cdfg.NodeID) float64 {
		total := 0.0
		for _, id := range set {
			w := 1.0
			if weights != nil {
				if cw, ok := weights[g.Node(id).Class()]; ok {
					w = cw
				}
			}
			total += w
		}
		return total
	}
	score := make(map[cdfg.NodeID]float64, len(muxes))
	d := newGateDeriver(g)
	for _, m := range muxes {
		d.derive(m)
		score[m] = weightOf(d.sets[0]) + weightOf(d.sets[1])
	}
	out := append([]cdfg.NodeID(nil), muxes...)
	slices.SortStableFunc(out, func(a, b cdfg.NodeID) int {
		if score[a] != score[b] {
			return cmp.Compare(score[b], score[a])
		}
		if height[a] != height[b] {
			return cmp.Compare(height[a], height[b])
		}
		return cmp.Compare(a, b)
	})
	return out
}
