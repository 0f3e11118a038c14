package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
)

// InfeasibleError reports that no schedule exists under the given budget
// and resources. When Class is valid (HasClass), adding units of that class
// may help; otherwise the budget itself is below the critical path. When
// HasNode is set, Node identifies an operation that missed its deadline —
// callers can relax constraints around it (the power management pass uses
// this to degrade gating gracefully under fixed resources).
type InfeasibleError struct {
	Budget   int
	Class    cdfg.Class
	HasClass bool
	Node     cdfg.NodeID
	HasNode  bool
	Reason   string
}

// Error implements the error interface.
func (e *InfeasibleError) Error() string {
	if e.HasClass {
		return fmt.Sprintf("sched: infeasible in %d steps: %s (%s units exhausted)", e.Budget, e.Reason, e.Class)
	}
	return fmt.Sprintf("sched: infeasible in %d steps: %s", e.Budget, e.Reason)
}

// List performs resource-constrained list scheduling of g into at most
// budget control steps with initiation interval ii (use ii == budget for a
// non-pipelined schedule). Priority is least ALAP first (least slack), ties
// broken by node ID for determinism. res limits the number of operations of
// each class executing in the same modulo-ii slot; classes absent from res
// are unlimited.
func List(g *cdfg.Graph, budget, ii int, res Resources) (*Schedule, error) {
	w, err := window(g, budget, ii)
	if err != nil {
		return nil, err
	}
	return list(g, budget, ii, res, w)
}

// window checks the schedule shape and returns the ASAP/ALAP window of g
// for budget, or an error when no schedule of that shape exists. It does
// not depend on the resources, so Minimize computes it once for all of
// its attempts.
func window(g *cdfg.Graph, budget, ii int) (Window, error) {
	if budget < 1 {
		return Window{}, &InfeasibleError{Budget: budget, Reason: "budget must be at least 1"}
	}
	if ii < 1 || ii > budget {
		return Window{}, fmt.Errorf("sched: initiation interval %d outside [1,%d]", ii, budget)
	}
	w, err := AnalyzeWindow(g, budget)
	if err != nil {
		return Window{}, err
	}
	if !w.Feasible() {
		return Window{}, &InfeasibleError{Budget: budget, Reason: "critical path exceeds budget"}
	}
	return w, nil
}

// list is List over a window already checked by window.
func list(g *cdfg.Graph, budget, ii int, res Resources, w Window) (*Schedule, error) {
	adj := g.SchedAdjacency()
	n := g.NumNodes()
	time := make(Times, n)
	done := make([]bool, n)
	pending := make([]int, n) // unscheduled sched-preds
	for _, nd := range g.Nodes() {
		pending[nd.ID] = len(adj.Preds(nd.ID))
	}

	type readyOp struct {
		id    cdfg.NodeID
		ready int // earliest step it may execute
	}
	var ready []readyOp

	// settle marks a node done at time t and releases its successors.
	// Free successors (shifts, outputs) settle recursively.
	var settle func(id cdfg.NodeID, t int)
	settle = func(id cdfg.NodeID, t int) {
		time[id] = t
		done[id] = true
		for _, s := range adj.Succs(id) {
			pending[s]--
			if pending[s] != 0 {
				continue
			}
			readyAt := 0
			for _, p := range adj.Preds(s) {
				if time[p] > readyAt {
					readyAt = time[p]
				}
			}
			sn := g.Node(s)
			if sn.Latency() == 0 {
				settle(s, readyAt)
			} else {
				ready = append(ready, readyOp{id: s, ready: readyAt + 1})
			}
		}
	}

	// Seed: nodes with no predecessors. Snapshot first — settling a seed
	// cascades and may drive other nodes' pending counts to zero, and
	// those are enqueued by settle itself; re-examining them here would
	// enqueue them twice.
	var seeds []cdfg.NodeID
	for _, nd := range g.Nodes() {
		if pending[nd.ID] == 0 {
			seeds = append(seeds, nd.ID)
		}
	}
	for _, id := range seeds {
		if done[id] {
			continue
		}
		if g.Node(id).Latency() == 0 {
			settle(id, 0)
		} else {
			ready = append(ready, readyOp{id: id, ready: 1})
		}
	}

	// slotUse[slot][class] tracks units occupied in each modulo slot.
	slotUse := make([]map[cdfg.Class]int, ii)
	for i := range slotUse {
		slotUse[i] = make(map[cdfg.Class]int)
	}

	scheduledOps := 0
	totalOps := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			totalOps++
		}
	}

	for t := 1; t <= budget && scheduledOps < totalOps; t++ {
		// Deterministic candidate order: least ALAP, then ID.
		slices.SortFunc(ready, func(a, b readyOp) int {
			if w.ALAP[a.id] != w.ALAP[b.id] {
				return cmp.Compare(w.ALAP[a.id], w.ALAP[b.id])
			}
			return cmp.Compare(a.id, b.id)
		})
		slot := (t - 1) % ii
		// Iterate over a snapshot: settle() appends ops that become
		// ready during this step to the (reset) ready slice.
		snapshot := ready
		ready = nil
		var remaining []readyOp
		for _, cand := range snapshot {
			if cand.ready > t {
				remaining = append(remaining, cand)
				continue
			}
			cls := g.Node(cand.id).Class()
			limit, limited := res[cls]
			if limited && slotUse[slot][cls] >= limit {
				if w.ALAP[cand.id] <= t {
					// This op must run now but cannot: the
					// class is the bottleneck.
					return nil, &InfeasibleError{
						Budget:   budget,
						Class:    cls,
						HasClass: true,
						Node:     cand.id,
						HasNode:  true,
						Reason:   fmt.Sprintf("op %q missed its deadline at step %d", g.Node(cand.id).Name, t),
					}
				}
				remaining = append(remaining, cand)
				continue
			}
			slotUse[slot][cls]++
			scheduledOps++
			settle(cand.id, t)
		}
		ready = append(ready, remaining...)
	}

	if scheduledOps != totalOps {
		// Report a representative blocked op (smallest ID for
		// determinism) so callers can relax constraints around it.
		e := &InfeasibleError{
			Budget: budget,
			Reason: fmt.Sprintf("%d of %d ops unscheduled", totalOps-scheduledOps, totalOps),
		}
		for _, cand := range ready {
			if !e.HasNode || cand.id < e.Node {
				e.Node = cand.id
				e.HasNode = true
				e.Class = g.Node(cand.id).Class()
				e.HasClass = true
			}
		}
		return nil, e
	}

	s := &Schedule{Graph: g, Steps: budget, II: ii, Time: time}
	return s, nil
}

// lowerBound returns the per-class minimum feasible unit counts for the
// given initiation interval: ceil(#ops(class) / ii).
func lowerBound(g *cdfg.Graph, ii int) Resources {
	counts := make(map[cdfg.Class]int)
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			counts[nd.Class()]++
		}
	}
	res := make(Resources, len(counts))
	for c, k := range counts {
		res[c] = (k + ii - 1) / ii
	}
	return res
}

// Minimize finds a schedule of g in at most budget steps (initiation
// interval ii) using as few execution units as the list scheduler can
// manage, mimicking HYPER's minimum-hardware goal for a fixed throughput.
// It starts from the per-class lower bound and adds one unit of the
// blocking class until scheduling succeeds. A budget or ii that List
// rejects returns List's error.
func Minimize(g *cdfg.Graph, budget, ii int) (*Schedule, Resources, error) {
	w, err := window(g, budget, ii)
	if err != nil {
		return nil, nil, err
	}
	res := lowerBound(g, ii)
	maxUnits := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			maxUnits++
		}
	}
	for iter := 0; iter <= maxUnits+1; iter++ {
		s, err := list(g, budget, ii, res, w)
		if err == nil {
			return s, res, nil
		}
		ie, ok := err.(*InfeasibleError)
		if !ok {
			return nil, nil, err
		}
		if !ie.HasClass {
			return nil, nil, err
		}
		res[ie.Class]++
	}
	return nil, nil, fmt.Errorf("sched: minimize failed to converge for %q", g.Name)
}

// MinimizeSimple is Minimize with ii == budget (non-pipelined).
func MinimizeSimple(g *cdfg.Graph, budget int) (*Schedule, Resources, error) {
	return Minimize(g, budget, budget)
}
