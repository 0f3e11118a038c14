package sched

import (
	"fmt"

	"repro/internal/cdfg"
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
	adj := g.SchedAdjacency()
	t := make(Times, g.NumNodes())
	for _, id := range order {
		n := g.Node(id)
		ready := 0
		for _, p := range adj.Preds(id) {
			if t[p] > ready {
				ready = t[p]
			}
		}
		t[id] = ready + n.Latency()
	}
	return t, nil
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
	adj := g.SchedAdjacency()
	t := make(Times, g.NumNodes())
	for i := range t {
		t[i] = budget
	}
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
	return t, nil
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

// AnalyzeWindow computes ASAP and ALAP for the given budget.
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
