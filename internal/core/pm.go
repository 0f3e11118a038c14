package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/sim"
)

// passResult is the outcome of one annotate-and-commit sweep over the
// muxes in a fixed order.
type passResult struct {
	graph   *cdfg.Graph
	managed []ManagedMux
	guards  sim.Guards
	// reports holds every mux's verdict and a copy of its gated sets in
	// processing order, with Detail left empty, when the pass runs for
	// Explain, and nothing otherwise.
	reports []MuxReport
}

// pass runs Fig. 3 steps 2-10 over the muxes of one graph. Its deriver and
// feasibility window are set up at the first mux that needs them, so a
// graph without anything to gate pays for neither.
//
// A pass is working memory: newPass takes one from passes, and the caller
// releases it once it has read the result. While the muxes are stepped
// through, the pass records the committed edges, the managed muxes and
// their guards in its own buffers; finish then builds the result from
// them, each piece in one allocation of its exact size. The pass reads its
// input graph and never writes it: the result's graph is a fork of the
// input carrying the committed edges, or the input itself when no batch
// was committed.
type pass struct {
	input *cdfg.Graph
	res   passResult
	// explain records every mux's verdict in res.reports.
	explain bool
	// window is the input's window under the budget until win takes it
	// over at the first feasibility test; from then on win keeps it equal
	// to the window of the input plus the committed edges, so after the
	// last mux it is the window of the result's graph, which Schedule
	// hands to the scheduler.
	window sched.Window
	gates  gateDeriver
	win    passWindow
	// hasGates and hasWin report whether gates and win are set up over
	// this pass's input.
	hasGates, hasWin bool
	// order is the mux processing order; scores holds the greedy-weight
	// order's per-mux scores, indexed by node.
	order  []cdfg.NodeID
	scores []float64
	// muxes records the managed muxes in processing order, their gated
	// sets held in ids.
	muxes []committedMux
	ids   []cdfg.NodeID
	// guardsOf holds each node's guards in the order they were added, and
	// guarded the nodes with at least one, in the order of their first.
	guardsOf [][]sim.Guard
	guarded  []cdfg.NodeID
}

// committedMux is a managed mux as the pass records it: its gated sets
// are ids[lo:mid] (true branch) and ids[mid:hi] (false branch).
type committedMux struct {
	mux, sel    cdfg.NodeID
	lo, mid, hi int
}

// passes holds the idle passes.
var passes scratch.List[pass]

// newPass takes an idle pass and starts it over g, which it only reads.
// The caller computes g's window under the budget into p.window before
// the first step, and calls release when done with the result.
func newPass(g *cdfg.Graph, explain bool) *pass {
	p := passes.Get()
	p.input, p.explain = g, explain
	p.res = passResult{graph: g}
	p.muxes, p.ids = p.muxes[:0], p.ids[:0]
	p.guardsOf = resetLists(p.guardsOf, g.NumNodes())
	p.guarded = p.guarded[:0]
	return p
}

// release returns p to passes, dropping every reference to the graph and
// the result.
func (p *pass) release() {
	p.input, p.res = nil, passResult{}
	p.gates.g = nil
	p.win.g, p.win.asap, p.win.alap = nil, nil, nil
	p.hasGates, p.hasWin = false, false
	passes.Put(p)
}

// deriver returns the pass's gate deriver, set up over the input on first
// use.
func (p *pass) deriver() *gateDeriver {
	if !p.hasGates {
		p.gates.reset(p.input)
		p.hasGates = true
	}
	return &p.gates
}

// step derives m's gated sets, tentatively serializes its select before
// their tops, and keeps the mux if every node still fits the budget.
func (p *pass) step(m cdfg.NodeID) error {
	d := p.deriver()
	d.derive(m)
	if d.empty() {
		p.report(m, VerdictNothingToGate)
		return nil
	}
	if !p.hasWin {
		p.win.reset(p.input, p.window)
		p.hasWin = true
	}
	sel := p.input.Node(m).Args[cdfg.MuxSel]
	ok, err := p.win.test(sel, d.tops)
	if err != nil {
		return err
	}
	if !ok {
		// Paper step 7: revert; no PM for this mux at this throughput.
		p.win.rollback()
		p.report(m, VerdictNoSlack)
		return nil
	}
	p.win.commit()
	p.report(m, VerdictManaged)
	lo := len(p.ids)
	p.ids = append(p.ids, d.sets[0]...)
	mid := len(p.ids)
	p.ids = append(p.ids, d.sets[1]...)
	p.muxes = append(p.muxes, committedMux{mux: m, sel: sel, lo: lo, mid: mid, hi: len(p.ids)})
	for b, set := range d.sets {
		for _, id := range set {
			p.addGuard(id, sim.Guard{Sel: sel, WhenTrue: b == 0})
		}
	}
	return nil
}

// report records m's verdict, with a copy of its gated sets unless there
// is nothing to gate, when the pass runs for Explain.
func (p *pass) report(m cdfg.NodeID, v MuxVerdict) {
	if !p.explain {
		return
	}
	rep := MuxReport{Mux: m, Verdict: v}
	if v != VerdictNothingToGate {
		rep.GatedTrue, rep.GatedFalse = cloneIDs(p.gates.sets[0]), cloneIDs(p.gates.sets[1])
	}
	p.res.reports = append(p.res.reports, rep)
}

// cloneIDs returns a copy of ids, nil when ids is empty.
func cloneIDs(ids []cdfg.NodeID) []cdfg.NodeID {
	if len(ids) == 0 {
		return nil
	}
	return slices.Clone(ids)
}

// addGuard appends a guard unless an identical one is already present: two
// muxes sharing one select can gate overlapping cones, and a repeated
// identical guard must not be double counted by the probability analyses.
func (p *pass) addGuard(id cdfg.NodeID, gd sim.Guard) {
	have := p.guardsOf[id]
	if slices.Contains(have, gd) {
		return
	}
	if len(have) == 0 {
		p.guarded = append(p.guarded, id)
	}
	p.guardsOf[id] = append(have, gd)
}

// finish builds the result from the pass's records. The graph is a fork
// of the input carrying the committed edges, or the input when there are
// none; the managed muxes, their gated sets, the guard map and its lists
// each take one allocation of their exact size, so the count does not
// grow with the design.
func (p *pass) finish() error {
	if p.hasWin && len(p.win.edges) > 0 {
		fork := p.input.Fork()
		if err := fork.AddControlEdges(p.win.edges); err != nil {
			return err
		}
		p.res.graph = fork
	}
	if len(p.muxes) > 0 {
		ids := slices.Clone(p.ids)
		span := func(lo, hi int) []cdfg.NodeID {
			if lo == hi {
				return nil
			}
			return ids[lo:hi:hi]
		}
		p.res.managed = make([]ManagedMux, len(p.muxes))
		for i, cm := range p.muxes {
			p.res.managed[i] = ManagedMux{Mux: cm.mux, Sel: cm.sel,
				GatedTrue: span(cm.lo, cm.mid), GatedFalse: span(cm.mid, cm.hi)}
		}
	}
	total := 0
	for _, id := range p.guarded {
		total += len(p.guardsOf[id])
	}
	p.res.guards = make(sim.Guards, len(p.guarded))
	block := make([]sim.Guard, 0, total)
	for _, id := range p.guarded {
		lo := len(block)
		block = append(block, p.guardsOf[id]...)
		p.res.guards[id] = block[lo:len(block):len(block)]
	}
	return nil
}

// Schedule runs the full power management scheduling flow on g (paper
// Fig. 3). The input graph is not modified. Result.Graph is g itself when
// no mux was managed and Resources is nil; otherwise it is a fork of g
// (see cdfg.Graph.Fork) carrying the pass's control edges.
func Schedule(g *cdfg.Graph, cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	ii := cfg.ii()
	if ii < 1 || ii > cfg.Budget {
		return nil, fmt.Errorf("core: initiation interval %d outside [1,%d]", ii, cfg.Budget)
	}
	p, err := selectPass(g, cfg, false)
	if err != nil {
		return nil, err
	}
	defer p.release()
	pr := &p.res

	var s *sched.Schedule
	var res sched.Resources
	if cfg.Resources != nil {
		// Fixed hardware: degrade gating gracefully when the resource
		// constraint makes the fully gated schedule infeasible
		// (paper §II.B's one-subtractor scenario). Relaxation rewrites
		// the graph's control edges, so it works on a fork even when
		// the pass committed nothing.
		res = cfg.Resources.Clone()
		userEdges := append([]cdfg.ControlEdge(nil), g.ControlEdges()...)
		if pr.graph == g {
			pr.graph = g.Fork()
		}
		s, err = scheduleWithRelaxation(pr, cfg.Budget, ii, res, userEdges, cfg.Weights)
	} else {
		// The pass's window is the committed graph's: no new analysis.
		s, res, err = sched.MinimizeWithin(pr.graph, cfg.Budget, ii, p.window)
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

// selectPass runs the mux selection loop in the configured order, with
// every mux's verdict recorded when explain is set. Schedule finishes
// that pass; Explain reports its verdicts. The caller releases the pass.
func selectPass(g *cdfg.Graph, cfg Config, explain bool) (*pass, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := newPass(g, explain)
	if err := p.run(cfg); err != nil {
		p.release()
		return nil, err
	}
	return p, nil
}

// run checks the budget, orders the muxes and steps through them.
func (p *pass) run(cfg Config) error {
	// Budget feasibility before any PM constraint. The window and the
	// order only read the input; its analysis memo is safe to share.
	if err := p.window.Compute(p.input, cfg.Budget); err != nil {
		return err
	}
	if !p.window.Feasible() {
		return fmt.Errorf("core: budget %d below the critical path", cfg.Budget)
	}
	if err := p.orderMuxes(cfg); err != nil {
		return err
	}
	for _, m := range p.order {
		if err := p.step(m); err != nil {
			return err
		}
	}
	return p.finish()
}

// orderMuxes fills p.order with the input's multiplexors in the
// processing order of the configured strategy.
func (p *pass) orderMuxes(cfg Config) error {
	g := p.input
	p.order = p.order[:0]
	for _, nd := range g.Nodes() {
		if nd.Kind == cdfg.KindMux {
			p.order = append(p.order, nd.ID)
		}
	}
	if len(p.order) == 0 {
		return nil
	}
	_, height := g.Levels()
	byHeight := func(a, b cdfg.NodeID) int {
		if ha, hb := height[a], height[b]; ha != hb {
			return cmp.Compare(ha, hb)
		}
		return cmp.Compare(a, b)
	}
	switch cfg.Order {
	case OrderOutputsFirst:
		slices.SortStableFunc(p.order, byHeight)
	case OrderInputsFirst:
		slices.SortStableFunc(p.order, func(a, b cdfg.NodeID) int {
			if ha, hb := height[a], height[b]; ha != hb {
				return cmp.Compare(hb, ha)
			}
			return cmp.Compare(a, b)
		})
	case OrderGreedyWeight:
		p.greedyWeightOrder(cfg.Weights, height)
	default:
		return fmt.Errorf("core: unknown order strategy %v", cfg.Order)
	}
	return nil
}

// greedyWeightOrder sorts p.order by decreasing gateable-cone weight, the
// §IV.A pre-processing heuristic. Ties fall back to outputs-first.
func (p *pass) greedyWeightOrder(weights map[cdfg.Class]float64, height []int) {
	g := p.input
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
	p.scores = scratch.Grow(p.scores, g.NumNodes())
	score := p.scores
	d := p.deriver()
	for _, m := range p.order {
		d.derive(m)
		score[m] = weightOf(d.sets[0]) + weightOf(d.sets[1])
	}
	slices.SortStableFunc(p.order, func(a, b cdfg.NodeID) int {
		if score[a] != score[b] {
			return cmp.Compare(score[b], score[a])
		}
		if height[a] != height[b] {
			return cmp.Compare(height[a], height[b])
		}
		return cmp.Compare(a, b)
	})
}
