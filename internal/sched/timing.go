package sched

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/scratch"
)

// Times holds per-node availability times from a timing analysis.
// For an operation node the time is also the control step it executes in.
type Times []int

// Clone returns a copy of the time vector; a nil receiver stays nil.
func (t Times) Clone() Times {
	if t == nil {
		return nil
	}
	return append(Times(nil), t...)
}

// ASAP computes, for every node, the earliest availability time under
// dataflow and control edges. The returned slice is indexed by NodeID.
func ASAP(g *cdfg.Graph) (Times, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	t := make(Times, g.NumNodes())
	walkASAP(g, order, t)
	return t, nil
}

// walkASAP fills t with g's ASAP times, visiting the nodes in order.
func walkASAP(g *cdfg.Graph, order []cdfg.NodeID, t Times) {
	adj := g.SchedAdjacency()
	for _, id := range order {
		ready := 0
		for _, p := range adj.Preds(id) {
			if t[p] > ready {
				ready = t[p]
			}
		}
		t[id] = ready + g.Node(id).Latency()
	}
}

// ALAP computes, for every node, the latest availability time such that all
// outputs are available by budget steps. It returns an error if the budget
// is smaller than the critical path (some node would get ALAP < ASAP is the
// caller's check; here only structural errors are reported).
func ALAP(g *cdfg.Graph, budget int) (Times, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	t := make(Times, g.NumNodes())
	walkALAP(g, order, budget, t)
	return t, nil
}

// walkALAP fills t with g's ALAP times under budget, visiting the nodes in
// reverse order.
func walkALAP(g *cdfg.Graph, order []cdfg.NodeID, budget int, t Times) {
	adj := g.SchedAdjacency()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		limit := budget
		for _, s := range adj.Succs(id) {
			cand := t[s] - g.Node(s).Latency()
			if cand < limit {
				limit = cand
			}
		}
		t[id] = limit
	}
}

// Window holds the ASAP and ALAP times of one analysis.
type Window struct {
	ASAP Times
	ALAP Times
}

// Mobility returns ALAP-ASAP for the node: the scheduling slack.
func (w Window) Mobility(id cdfg.NodeID) int { return w.ALAP[id] - w.ASAP[id] }

// Feasible reports whether every node has ASAP <= ALAP.
func (w Window) Feasible() bool {
	for i := range w.ASAP {
		if w.ASAP[i] > w.ALAP[i] {
			return false
		}
	}
	return true
}

// AnalyzeWindow computes ASAP and ALAP for the given budget by walking the
// scheduling graph in topological order. It allocates both vectors;
// Compute fills a window the caller reuses.
func AnalyzeWindow(g *cdfg.Graph, budget int) (Window, error) {
	asap, err := ASAP(g)
	if err != nil {
		return Window{}, err
	}
	alap, err := ALAP(g, budget)
	if err != nil {
		return Window{}, err
	}
	return Window{ASAP: asap, ALAP: alap}, nil
}

// Compute overwrites w with the window of g under budget, reusing w's
// vectors when their capacity allows, and returns AnalyzeWindow's error,
// if any. The times equal AnalyzeWindow's. On a graph without control
// edges no walk runs: ASAP is the memoized depth, and ALAP is the budget
// less the memoized height to an output plus the node's own latency,
// since the latest time of a node is the budget less the longest path
// below it.
func (w *Window) Compute(g *cdfg.Graph, budget int) error {
	n := g.NumNodes()
	w.ASAP, w.ALAP = scratch.Grow(w.ASAP, n), scratch.Grow(w.ALAP, n)
	if len(g.ControlEdges()) == 0 {
		levelWindow(g, budget, *w)
		return nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	walkASAP(g, order, w.ASAP)
	walkALAP(g, order, budget, w.ALAP)
	return nil
}

// levelWindow fills w, sized to g, with the window of g under budget from
// the memoized depth and height. g must have no control edges.
func levelWindow(g *cdfg.Graph, budget int, w Window) {
	depth, height := g.Levels()
	copy(w.ASAP, depth)
	for i, nd := range g.Nodes() {
		w.ALAP[i] = budget - height[i] + nd.Latency()
	}
}

// MinBudget returns the smallest budget for which the graph (including its
// control edges) is schedulable: the longest path through the scheduling
// graph.
func MinBudget(g *cdfg.Graph) (int, error) {
	asap, err := ASAP(g)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, v := range asap {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// Resources maps an operation class to the number of available execution
// units of that class.
type Resources map[cdfg.Class]int

// Clone returns a copy of the resource map.
func (r Resources) Clone() Resources {
	out := make(Resources, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// String formats the resource bag deterministically by class order.
func (r Resources) String() string {
	s := ""
	for c := cdfg.Class(0); int(c) < cdfg.NumClasses; c++ {
		if n, ok := r[c]; ok && n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", c, n)
		}
	}
	if s == "" {
		return "(none)"
	}
	return s
}

// Total returns the summed unit count.
func (r Resources) Total() int {
	t := 0
	for _, v := range r {
		t += v
	}
	return t
}
