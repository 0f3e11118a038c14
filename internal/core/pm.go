package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// gatedSets holds the per-branch gateable operation sets for one mux.
type gatedSets struct {
	trueSet, falseSet cdfg.NodeSet
}

func (gs gatedSets) empty() bool { return len(gs.trueSet) == 0 && len(gs.falseSet) == 0 }

// computeGatedSets derives the maximal gateable sets for mux m (paper
// Fig. 3 step 3 plus the fanout exclusions of §III).
//
// A node is gateable on branch b when:
//   - it lies in the transitive fanin of input b,
//   - it is not in the fanin of the select (it helps compute the
//     condition) nor in the fanin of the other data input (it is needed
//     either way),
//   - every dataflow path from it reaches only gated nodes, ending at
//     input b of m ("no fanout to other nodes besides the current
//     multiplexor"),
//   - it is a datapath operation (IO and wiring have no input latches).
//
// Wire nodes (constant shifts) are transparent: they may sit between gated
// operations, but are never members of the gated set themselves.
func computeGatedSets(g *cdfg.Graph, m cdfg.NodeID) gatedSets {
	mux := g.Node(m)
	coneSel := g.TransitiveFanin(mux.Args[cdfg.MuxSel])
	coneT := g.TransitiveFanin(mux.Args[cdfg.MuxTrue])
	coneF := g.TransitiveFanin(mux.Args[cdfg.MuxFalse])
	return gatedSets{
		trueSet:  gateable(g, m, coneT, coneSel, coneF),
		falseSet: gateable(g, m, coneF, coneSel, coneT),
	}
}

// gateable computes the closed gated set for one branch cone. The closure
// runs over ops and wires (wires are transparent carriers) and the final
// result keeps ops only.
func gateable(g *cdfg.Graph, m cdfg.NodeID, cone, coneSel, coneOther cdfg.NodeSet) cdfg.NodeSet {
	// Initial candidates: ops and wires exclusive to this branch cone.
	cand := make(cdfg.NodeSet)
	for id := range cone {
		if id == m || coneSel.Contains(id) || coneOther.Contains(id) {
			continue
		}
		n := g.Node(id)
		if n.IsOp() || n.Class() == cdfg.ClassWire {
			cand[id] = true
		}
	}
	// Fixed point: drop any candidate with a dataflow successor outside
	// cand ∪ {m}. (A successor equal to m is necessarily via this
	// branch's data input: select and other-input cones were excluded.)
	for changed := true; changed; {
		changed = false
		for id := range cand {
			for _, s := range g.Succs(id) {
				if s == m || cand.Contains(s) {
					continue
				}
				delete(cand, id)
				changed = true
				break
			}
		}
	}
	// Keep operations only.
	out := make(cdfg.NodeSet)
	for id := range cand {
		if g.Node(id).IsOp() {
			out[id] = true
		}
	}
	return out
}

// topsOf returns the gated operations with no gated (or wire-transparent
// gated) predecessor: the "top nodes" that receive the control edges.
func topsOf(g *cdfg.Graph, set cdfg.NodeSet) []cdfg.NodeID {
	var tops []cdfg.NodeID
	var reachesSet func(id cdfg.NodeID) bool
	reachesSet = func(id cdfg.NodeID) bool {
		if set.Contains(id) {
			return true
		}
		if g.Node(id).Class() == cdfg.ClassWire {
			return reachesSet(g.Node(id).Args[0])
		}
		return false
	}
	for _, id := range set.Sorted() {
		isTop := true
		for _, p := range g.Preds(id) {
			if reachesSet(p) {
				isTop = false
				break
			}
		}
		if isTop {
			tops = append(tops, id)
		}
	}
	return tops
}

// passResult is the outcome of one annotate-and-commit sweep over the
// muxes in a fixed order.
type passResult struct {
	graph   *cdfg.Graph
	managed []ManagedMux
	guards  sim.Guards
}

// runPass executes Fig. 3 steps 2-10 over the muxes of work (a private
// clone) in the given order, committing each mux whose serialization keeps
// the budget feasible. The input graph is mutated (control edges added).
func runPass(work *cdfg.Graph, budget int, order []cdfg.NodeID) (passResult, error) {
	res := passResult{graph: work, guards: make(sim.Guards)}
	for _, m := range order {
		gs := computeGatedSets(work, m)
		if gs.empty() {
			continue // nothing to shut down; not counted as managed
		}
		sel := work.Node(m).Args[cdfg.MuxSel]
		// Tentatively serialize: select driver before every gated top.
		before := len(work.ControlEdges())
		for _, branch := range []cdfg.NodeSet{gs.trueSet, gs.falseSet} {
			for _, top := range topsOf(work, branch) {
				if hasControlEdge(work, sel, top) {
					continue
				}
				if err := work.AddControlEdge(sel, top); err != nil {
					return passResult{}, err
				}
			}
		}
		w, err := sched.AnalyzeWindow(work, budget)
		if err != nil {
			return passResult{}, err
		}
		if !w.Feasible() {
			// Paper step 7: revert; no PM for this mux at this
			// throughput.
			truncateControlEdges(work, before)
			continue
		}
		mm := ManagedMux{
			Mux:        m,
			Sel:        sel,
			GatedTrue:  gs.trueSet.Sorted(),
			GatedFalse: gs.falseSet.Sorted(),
		}
		res.managed = append(res.managed, mm)
		for _, id := range mm.GatedTrue {
			addGuard(res.guards, id, sim.Guard{Sel: sel, WhenTrue: true})
		}
		for _, id := range mm.GatedFalse {
			addGuard(res.guards, id, sim.Guard{Sel: sel, WhenTrue: false})
		}
	}
	return res, nil
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

func hasControlEdge(g *cdfg.Graph, from, to cdfg.NodeID) bool {
	for _, e := range g.ControlEdges() {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// truncateControlEdges removes control edges added after position n by
// rebuilding the edge list. cdfg exposes no removal primitive, so the
// revert clears and re-adds the prefix.
func truncateControlEdges(g *cdfg.Graph, n int) {
	edges := append([]cdfg.ControlEdge(nil), g.ControlEdges()[:n]...)
	g.ClearControlEdges()
	for _, e := range edges {
		// Re-adding known-good edges cannot fail.
		if err := g.AddControlEdge(e.From, e.To); err != nil {
			panic(fmt.Sprintf("core: revert failed: %v", err))
		}
	}
}

// savingsMetric scores a pass outcome: the expected weighted activity saved
// assuming independent, equiprobable selects — an op with k nested guards
// executes with probability 2^-k, saving weight*(1-2^-k).
func savingsMetric(g *cdfg.Graph, guards sim.Guards, weights map[cdfg.Class]float64) float64 {
	total := 0.0
	for id, gl := range guards {
		w := 1.0
		if weights != nil {
			if cw, ok := weights[g.Node(id).Class()]; ok {
				w = cw
			}
		}
		p := 1.0
		for range gl {
			p /= 2
		}
		total += w * (1 - p)
	}
	return total
}

// Schedule runs the full power management scheduling flow on g (paper
// Fig. 3). The input graph is not modified.
func Schedule(g *cdfg.Graph, cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	ii := cfg.ii()
	if ii < 1 || ii > cfg.Budget {
		return nil, fmt.Errorf("core: initiation interval %d outside [1,%d]", ii, cfg.Budget)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Budget feasibility before any PM constraint. The window and the
	// candidate orders only read g; its analysis memo is safe to share.
	w, err := sched.AnalyzeWindow(g, cfg.Budget)
	if err != nil {
		return nil, err
	}
	if !w.Feasible() {
		return nil, fmt.Errorf("core: budget %d below the critical path", cfg.Budget)
	}

	orders, err := candidateOrders(g, cfg)
	if err != nil {
		return nil, err
	}
	userEdges := append([]cdfg.ControlEdge(nil), g.ControlEdges()...)
	var best passResult
	bestScore := -1.0
	for _, order := range orders {
		work := g.Clone()
		pr, err := runPass(work, cfg.Budget, order)
		if err != nil {
			return nil, err
		}
		score := savingsMetric(work, pr.guards, cfg.Weights)
		if score > bestScore {
			best = pr
			bestScore = score
		}
	}

	var s *sched.Schedule
	var res sched.Resources
	if cfg.Resources != nil {
		// Fixed hardware: degrade gating gracefully when the resource
		// constraint makes the fully gated schedule infeasible
		// (paper §II.B's one-subtractor scenario).
		res = cfg.Resources.Clone()
		s, err = scheduleWithRelaxation(&best, cfg.Budget, ii, res, userEdges, cfg.Weights)
	} else {
		s, res, err = sched.Minimize(best.graph, cfg.Budget, ii)
	}
	if err != nil {
		return nil, fmt.Errorf("core: final scheduling failed: %w", err)
	}
	return &Result{
		Graph:     best.graph,
		Schedule:  s,
		Resources: res,
		Managed:   best.managed,
		Guards:    best.guards,
		Order:     cfg.Order,
	}, nil
}

// candidateOrders produces the mux processing order(s) for the configured
// strategy. OrderExhaustive returns every permutation when the mux count
// permits, otherwise the greedy order only.
func candidateOrders(g *cdfg.Graph, cfg Config) ([][]cdfg.NodeID, error) {
	muxes := g.Muxes()
	if len(muxes) == 0 {
		return [][]cdfg.NodeID{nil}, nil
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
		return [][]cdfg.NodeID{byHeight(true)}, nil
	case OrderInputsFirst:
		return [][]cdfg.NodeID{byHeight(false)}, nil
	case OrderGreedyWeight:
		return [][]cdfg.NodeID{greedyWeightOrder(g, muxes, cfg.Weights)}, nil
	case OrderExhaustive:
		if len(muxes) > exhaustiveLimit {
			return [][]cdfg.NodeID{greedyWeightOrder(g, muxes, cfg.Weights)}, nil
		}
		return permutations(muxes), nil
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
	weightOf := func(set cdfg.NodeSet) float64 {
		total := 0.0
		for id := range set {
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
	for _, m := range muxes {
		gs := computeGatedSets(g, m)
		score[m] = weightOf(gs.trueSet) + weightOf(gs.falseSet)
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

// permutations returns all orderings of ids.
func permutations(ids []cdfg.NodeID) [][]cdfg.NodeID {
	if len(ids) == 0 {
		return [][]cdfg.NodeID{nil}
	}
	var out [][]cdfg.NodeID
	var rec func(cur []cdfg.NodeID, rest []cdfg.NodeID)
	rec = func(cur []cdfg.NodeID, rest []cdfg.NodeID) {
		if len(rest) == 0 {
			out = append(out, append([]cdfg.NodeID(nil), cur...))
			return
		}
		for i := range rest {
			next := append(cur, rest[i])
			var rem []cdfg.NodeID
			rem = append(rem, rest[:i]...)
			rem = append(rem, rest[i+1:]...)
			rec(next, rem)
		}
	}
	rec(nil, ids)
	return out
}
