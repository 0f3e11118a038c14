package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/scratch"
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
	if err := checkShape(budget, ii); err != nil {
		return nil, err
	}
	s := getListState(g, ii)
	defer s.release()
	if err := s.window(budget); err != nil {
		return nil, err
	}
	if f, ok := s.list(budget, ii, res); !ok {
		return nil, f.err(g, budget)
	}
	return s.schedule(budget, ii), nil
}

// checkShape rejects a budget or initiation interval no schedule can have.
func checkShape(budget, ii int) error {
	if budget < 1 {
		return &InfeasibleError{Budget: budget, Reason: "budget must be at least 1"}
	}
	if ii < 1 || ii > budget {
		return fmt.Errorf("sched: initiation interval %d outside [1,%d]", ii, budget)
	}
	return nil
}

// checkFeasible reports an infeasible window as the budget's error.
func checkFeasible(w Window, budget int) error {
	if !w.Feasible() {
		return &InfeasibleError{Budget: budget, Reason: "critical path exceeds budget"}
	}
	return nil
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

// listState is the working memory of List and Minimize, sized from the
// graph at each call. Minimize reuses one across its attempts. Between
// calls it waits in states, so a sweep's points reuse one another's
// buffers; only time, which the schedule keeps, is allocated per call.
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
	// win is the window List and Minimize compute for themselves.
	win Window
}

// states holds the idle list states.
var states scratch.List[listState]

// getListState takes an idle state and sizes it for g and ii.
func getListState(g *cdfg.Graph, ii int) *listState {
	n := g.NumNodes()
	totalOps := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			totalOps++
		}
	}
	s := states.Get()
	s.g, s.adj, s.totalOps = g, g.SchedAdjacency(), totalOps
	s.time = make(Times, n)
	s.pending = scratch.Grow(s.pending, n)
	s.ready = scratch.Grow(s.ready, totalOps)[:0]
	s.fresh = scratch.Grow(s.fresh, totalOps)[:0]
	s.slotUse = scratch.Grow(s.slotUse, ii*cdfg.NumClasses)
	return s
}

// release returns s to states. The time vector stays with the schedule
// that holds it, and s keeps no reference to the graph or a caller's
// window.
func (s *listState) release() {
	s.g, s.adj, s.alap, s.time = nil, cdfg.Adjacency{}, nil, nil
	states.Put(s)
}

// window computes the window of s's graph under budget into s.win, checks
// it is feasible, and makes its ALAP the list's priority.
func (s *listState) window(budget int) error {
	if err := s.win.Compute(s.g, budget); err != nil {
		return err
	}
	if err := checkFeasible(s.win, budget); err != nil {
		return err
	}
	s.alap = s.win.ALAP
	return nil
}

// schedule wraps the time vector of a successful attempt.
func (s *listState) schedule(budget, ii int) *Schedule {
	return &Schedule{Graph: s.g, Steps: budget, II: ii, Time: s.time}
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

// list is one list-scheduling attempt under the priority s.alap, taken
// from a feasible window. On success s.time is the schedule's time vector.
func (s *listState) list(budget, ii int, res Resources) (listFailure, bool) {
	var limit [cdfg.NumClasses]int
	var limited [cdfg.NumClasses]bool
	for c, k := range res {
		if c >= 0 && int(c) < cdfg.NumClasses {
			limit[c], limited[c] = k, true
		}
	}
	g := s.g
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
// taken from the ones earlier calls left idle, so a warm call allocates
// only what it returns: the schedule, its time vector and the resources.
func Minimize(g *cdfg.Graph, budget, ii int) (*Schedule, Resources, error) {
	if err := checkShape(budget, ii); err != nil {
		return nil, nil, err
	}
	s := getListState(g, ii)
	defer s.release()
	if err := s.window(budget); err != nil {
		return nil, nil, err
	}
	return s.minimize(budget, ii)
}

// MinimizeWithin is Minimize over a window the caller already holds: w
// must be g's window under budget, equal to what AnalyzeWindow(g, budget)
// returns, and Minimize's checks apply to it. The power management pass
// passes the window it keeps up to date with its own control edges, so
// the window is not computed again. w is only read.
func MinimizeWithin(g *cdfg.Graph, budget, ii int, w Window) (*Schedule, Resources, error) {
	if err := checkShape(budget, ii); err != nil {
		return nil, nil, err
	}
	if n := g.NumNodes(); len(w.ASAP) != n || len(w.ALAP) != n {
		return nil, nil, fmt.Errorf("sched: window covers %d and %d nodes, graph has %d", len(w.ASAP), len(w.ALAP), n)
	}
	if err := checkFeasible(w, budget); err != nil {
		return nil, nil, err
	}
	s := getListState(g, ii)
	defer s.release()
	s.alap = w.ALAP
	return s.minimize(budget, ii)
}

// minimize runs Minimize's attempts under the priority s.alap.
func (s *listState) minimize(budget, ii int) (*Schedule, Resources, error) {
	g := s.g
	res := lowerBound(g, ii)
	for iter := 0; iter <= s.totalOps+1; iter++ {
		f, ok := s.list(budget, ii, res)
		if ok {
			return s.schedule(budget, ii), res, nil
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
