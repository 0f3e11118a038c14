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
	s := newListState(g, ii)
	if f, ok := s.list(budget, ii, res, w); !ok {
		return nil, f.err(g, budget)
	}
	return &Schedule{Graph: g, Steps: budget, II: ii, Time: s.time}, nil
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

// readyOp is an operation whose scheduling predecessors have all been
// placed.
type readyOp struct {
	id    cdfg.NodeID
	alap  int // priority: least ALAP first, then least ID
	ready int // earliest step it may execute
}

// compareReady orders ready operations by (ALAP, ID). IDs are unique, so
// the order is total: any two lists holding the same operations sort
// the same way.
func compareReady(a, b readyOp) int {
	if a.alap != b.alap {
		return cmp.Compare(a.alap, b.alap)
	}
	return cmp.Compare(a.id, b.id)
}

// listState is the working memory of list, sized once from the graph.
// Minimize reuses one across its attempts; it is never shared between
// calls.
type listState struct {
	g        *cdfg.Graph
	adj      cdfg.Adjacency
	alap     Times
	totalOps int

	time    Times
	pending []int // unplaced scheduling predecessors
	// ready holds the operations waiting for a step, sorted by
	// compareReady; fresh collects those that become ready while a step
	// is being filled, merged into ready when it closes.
	ready, fresh []readyOp
	// slotUse[slot*cdfg.NumClasses+class] counts the units of class
	// occupied in modulo slot.
	slotUse []int
}

func newListState(g *cdfg.Graph, ii int) *listState {
	n := g.NumNodes()
	totalOps := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			totalOps++
		}
	}
	return &listState{
		g:        g,
		adj:      g.SchedAdjacency(),
		totalOps: totalOps,
		time:     make(Times, n),
		pending:  make([]int, n),
		ready:    make([]readyOp, 0, totalOps),
		fresh:    make([]readyOp, 0, totalOps),
		slotUse:  make([]int, ii*cdfg.NumClasses),
	}
}

// listFailure describes why a list attempt failed, without formatting
// anything: a Minimize retry only reads the node's class, and err builds
// the InfeasibleError a caller sees.
type listFailure struct {
	// missed is set when node had to run at step but its class was
	// exhausted; otherwise the budget ran out with scheduled of the
	// graph's operations placed, and node is the smallest waiting one.
	missed    bool
	node      cdfg.NodeID
	hasNode   bool
	step      int
	scheduled int
	totalOps  int
}

// err builds the InfeasibleError List and Minimize report.
func (f listFailure) err(g *cdfg.Graph, budget int) *InfeasibleError {
	e := &InfeasibleError{Budget: budget, Node: f.node, HasNode: f.hasNode}
	if f.hasNode {
		e.Class, e.HasClass = g.Node(f.node).Class(), true
	}
	if f.missed {
		e.Reason = fmt.Sprintf("op %q missed its deadline at step %d", g.Node(f.node).Name, f.step)
	} else {
		e.Reason = fmt.Sprintf("%d of %d ops unscheduled", f.totalOps-f.scheduled, f.totalOps)
	}
	return e
}

// settle places node id at time t and releases its successors: an
// operation joins fresh, a free node (shift, output) settles at once.
// Only a node with a predecessor is ever released, so settle never
// reaches a seed.
func (s *listState) settle(id cdfg.NodeID, t int) {
	s.time[id] = t
	for _, su := range s.adj.Succs(id) {
		s.pending[su]--
		if s.pending[su] != 0 {
			continue
		}
		readyAt := 0
		for _, p := range s.adj.Preds(su) {
			if s.time[p] > readyAt {
				readyAt = s.time[p]
			}
		}
		if s.g.Node(su).Latency() == 0 {
			s.settle(su, readyAt)
		} else {
			s.fresh = append(s.fresh, readyOp{id: su, alap: s.alap[su], ready: readyAt + 1})
		}
	}
}

// mergeFresh sorts fresh and merges it into ready[:k], which is sorted,
// from the back, so ready holds both lists in compareReady order.
func (s *listState) mergeFresh(k int) {
	slices.SortFunc(s.fresh, compareReady)
	n := k + len(s.fresh)
	s.ready = s.ready[:n]
	i, j := k-1, len(s.fresh)-1
	for o := n - 1; j >= 0; o-- {
		if i >= 0 && compareReady(s.fresh[j], s.ready[i]) < 0 {
			s.ready[o] = s.ready[i]
			i--
		} else {
			s.ready[o] = s.fresh[j]
			j--
		}
	}
	s.fresh = s.fresh[:0]
}

// list is one list-scheduling attempt over a window already checked by
// window. On success s.time is the schedule's time vector.
func (s *listState) list(budget, ii int, res Resources, w Window) (listFailure, bool) {
	var limit [cdfg.NumClasses]int
	var limited [cdfg.NumClasses]bool
	for c, k := range res {
		if c >= 0 && int(c) < cdfg.NumClasses {
			limit[c], limited[c] = k, true
		}
	}
	g := s.g
	s.alap = w.ALAP
	clear(s.time)
	clear(s.slotUse)
	s.ready, s.fresh = s.ready[:0], s.fresh[:0]
	for _, nd := range g.Nodes() {
		s.pending[nd.ID] = len(s.adj.Preds(nd.ID))
	}
	for _, nd := range g.Nodes() {
		if len(s.adj.Preds(nd.ID)) != 0 {
			continue
		}
		if nd.Latency() == 0 {
			s.settle(nd.ID, 0)
		} else {
			s.fresh = append(s.fresh, readyOp{id: nd.ID, alap: s.alap[nd.ID], ready: 1})
		}
	}
	s.mergeFresh(0)

	scheduled := 0
	for t := 1; t <= budget && scheduled < s.totalOps; t++ {
		// Visit the waiting operations in (ALAP, ID) order. Those that
		// stay are compacted in place, so ready stays sorted; those
		// released by this step's placements wait in fresh.
		slot := (t - 1) % ii
		use := s.slotUse[slot*cdfg.NumClasses : (slot+1)*cdfg.NumClasses]
		k := 0
		for _, cand := range s.ready {
			if cand.ready > t {
				s.ready[k] = cand
				k++
				continue
			}
			cls := g.Node(cand.id).Class()
			if limited[cls] && use[cls] >= limit[cls] {
				if cand.alap <= t {
					// This op must run now but cannot: the
					// class is the bottleneck.
					return listFailure{missed: true, node: cand.id, hasNode: true, step: t}, false
				}
				s.ready[k] = cand
				k++
				continue
			}
			use[cls]++
			scheduled++
			s.settle(cand.id, t)
		}
		s.mergeFresh(k)
	}

	if scheduled != s.totalOps {
		// Report a representative blocked op (smallest ID for
		// determinism) so callers can relax constraints around it.
		f := listFailure{scheduled: scheduled, totalOps: s.totalOps}
		for _, cand := range s.ready {
			if !f.hasNode || cand.id < f.node {
				f.node, f.hasNode = cand.id, true
			}
		}
		return f, false
	}
	return listFailure{}, true
}

// lowerBound returns the per-class minimum feasible unit counts for the
// given initiation interval: ceil(#ops(class) / ii).
func lowerBound(g *cdfg.Graph, ii int) Resources {
	var counts [cdfg.NumClasses]int
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			counts[nd.Class()]++
		}
	}
	res := make(Resources, cdfg.NumClasses)
	for c, k := range counts {
		if k > 0 {
			res[cdfg.Class(c)] = (k + ii - 1) / ii
		}
	}
	return res
}

// Minimize finds a schedule of g in at most budget steps (initiation
// interval ii) using as few execution units as the list scheduler can
// manage, mimicking HYPER's minimum-hardware goal for a fixed throughput.
// It starts from the per-class lower bound and adds one unit of the
// blocking class until scheduling succeeds. A budget or ii that List
// rejects returns List's error. Its attempts share one set of buffers,
// so a call allocates the same few times whatever the graph's size.
func Minimize(g *cdfg.Graph, budget, ii int) (*Schedule, Resources, error) {
	w, err := window(g, budget, ii)
	if err != nil {
		return nil, nil, err
	}
	res := lowerBound(g, ii)
	s := newListState(g, ii)
	for iter := 0; iter <= s.totalOps+1; iter++ {
		f, ok := s.list(budget, ii, res, w)
		if ok {
			return &Schedule{Graph: g, Steps: budget, II: ii, Time: s.time}, res, nil
		}
		if !f.hasNode {
			return nil, nil, f.err(g, budget)
		}
		res[g.Node(f.node).Class()]++
	}
	return nil, nil, fmt.Errorf("sched: minimize failed to converge for %q", g.Name)
}

// MinimizeSimple is Minimize with ii == budget (non-pipelined).
func MinimizeSimple(g *cdfg.Graph, budget int) (*Schedule, Resources, error) {
	return Minimize(g, budget, budget)
}
