package core

import (
	"errors"
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The paper (§II.B) notes that under fixed hardware resources full gating
// may be unschedulable — e.g. |a-b| in three steps with ONE subtractor: one
// subtraction must be issued in step 1, before the comparison result is
// known, and only the second subtraction can be power managed. Fig. 3's
// per-mux feasibility test is dependence-based and cannot see this, so the
// flow degrades gracefully: when the final resource-constrained list
// schedule fails, the gated operation blocking the schedule is released
// (made always-executing) together with its gated ancestors, and
// scheduling is retried.

// ungate releases op from all gating: its guards are dropped, it is
// removed from every managed mux's gated sets, and its gated ancestors
// (predecessors through transparent wires) are released recursively —
// an always-executing operation must read always-valid values.
func ungate(pr *passResult, op cdfg.NodeID) {
	if _, gated := pr.guards[op]; !gated {
		return
	}
	delete(pr.guards, op)
	for i := range pr.managed {
		pr.managed[i].GatedTrue = removeID(pr.managed[i].GatedTrue, op)
		pr.managed[i].GatedFalse = removeID(pr.managed[i].GatedFalse, op)
	}
	// Drop muxes whose gated sets became empty: nothing left to manage.
	kept := pr.managed[:0]
	for _, m := range pr.managed {
		if m.GatedCount() > 0 {
			kept = append(kept, m)
		}
	}
	pr.managed = kept

	g := pr.graph
	var release func(id cdfg.NodeID)
	release = func(id cdfg.NodeID) {
		n := g.Node(id)
		if n.Class() == cdfg.ClassWire {
			release(n.Args[0])
			return
		}
		if _, gated := pr.guards[id]; gated {
			ungate(pr, id)
		}
	}
	for _, p := range g.Preds(op) {
		release(p)
	}
}

func removeID(ids []cdfg.NodeID, id cdfg.NodeID) []cdfg.NodeID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// rebuildControlEdges recomputes the pass's control edges from the current
// managed set: userEdges (pre-existing constraints) are preserved, then one
// edge per (select driver, gated-cone top).
func rebuildControlEdges(pr *passResult, userEdges []cdfg.ControlEdge) error {
	g := pr.graph
	g.ClearControlEdges()
	for _, e := range userEdges {
		if err := g.AddControlEdge(e.From, e.To); err != nil {
			return err
		}
	}
	for _, m := range pr.managed {
		for _, branch := range [][]cdfg.NodeID{m.GatedTrue, m.GatedFalse} {
			set := cdfg.NewNodeSet(branch...)
			for _, top := range topsOf(g, set) {
				if g.HasControlEdge(m.Sel, top) {
					continue
				}
				if err := g.AddControlEdge(m.Sel, top); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// gatedAncestor finds the cheapest gated operation on which the blocked
// node (transitively) depends, including the blocked node itself. The
// second result reports whether one exists.
func gatedAncestor(g *cdfg.Graph, guards sim.Guards, blocked cdfg.NodeID, weights map[cdfg.Class]float64) (cdfg.NodeID, bool) {
	weightOf := func(id cdfg.NodeID) float64 {
		if weights == nil {
			return 1
		}
		if w, ok := weights[g.Node(id).Class()]; ok {
			return w
		}
		return 1
	}
	best := cdfg.InvalidNode
	bestW := 0.0
	seen := make(cdfg.NodeSet)
	stack := []cdfg.NodeID{blocked}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, gated := guards[id]; gated {
			w := weightOf(id)
			if best == cdfg.InvalidNode || w < bestW || (w == bestW && id < best) {
				best, bestW = id, w
			}
		}
		stack = append(stack, g.Preds(id)...)
	}
	return best, best != cdfg.InvalidNode
}

// scheduleWithRelaxation finishes a pass under fixed resources, releasing
// gated operations as needed until the list scheduler succeeds (or no
// gating remains to release).
func scheduleWithRelaxation(pr *passResult, budget, ii int, res sched.Resources,
	userEdges []cdfg.ControlEdge, weights map[cdfg.Class]float64) (*sched.Schedule, error) {
	for {
		s, err := sched.List(pr.graph, budget, ii, res)
		if err == nil {
			return s, nil
		}
		var ie *sched.InfeasibleError
		if !errors.As(err, &ie) || !ie.HasNode {
			return nil, err
		}
		victim, ok := gatedAncestor(pr.graph, pr.guards, ie.Node, weights)
		if !ok {
			return nil, fmt.Errorf("core: infeasible even without power management: %w", err)
		}
		ungate(pr, victim)
		if err := rebuildControlEdges(pr, userEdges); err != nil {
			return nil, err
		}
	}
}
