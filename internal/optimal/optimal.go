package optimal

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
)

// DefaultMaxExpansions bounds the branch-and-bound search when
// Config.MaxExpansions is zero. Table II-sized designs certify well under
// this limit; adversarial fuzz inputs hit it and receive a bound
// certificate instead of an unbounded search.
const DefaultMaxExpansions = 200_000

// Config parameterizes one exact scheduling run. Budget, II and Resources
// have the same meaning as in core.Config: II of zero means no pipelining
// (II = Budget), a nil resource bag means unlimited units.
type Config struct {
	// Budget is the schedule length in control steps.
	Budget int
	// II is the initiation interval; 0 means Budget.
	II int
	// Resources fixes the available units per class; nil is unlimited.
	Resources sched.Resources
	// MaxExpansions bounds search-node expansions; 0 uses
	// DefaultMaxExpansions.
	MaxExpansions int
	// Seed optionally warm-starts the search with an existing valid
	// schedule's times (typically the heuristic's). The realized gating of
	// the seed becomes the initial incumbent, so the result's power never
	// exceeds the seed's. An invalid seed is ignored.
	Seed sched.Times
}

// Certificate reports how much of the search space the solver covered.
type Certificate struct {
	// Optimal is true when the search ran to completion: Power is the
	// exact minimum of the model.
	Optimal bool
	// LowerBound is a sound lower bound on the true minimum; equal to the
	// result's Power when Optimal.
	LowerBound float64
	// Expansions is the number of search nodes expanded.
	Expansions int
}

// Result is a certified (or bound-certified) minimum-power schedule.
type Result struct {
	// Schedule is the optimal schedule on a private clone of the input
	// graph, with serializing control edges added for the kept gated tops.
	Schedule *sched.Schedule
	// Resources is the configured bag, or the schedule's usage when the
	// configuration left resources unconstrained.
	Resources sched.Resources
	// Guards holds the gating conditions realized by the schedule.
	Guards sim.Guards
	// Activity holds the per-node execution probabilities under Guards.
	Activity power.Activity
	// Exact reports whether Activity (and the optimized objective) used
	// the exact select enumeration; false means the independence
	// approximation was the objective (too many distinct selects).
	Exact bool
	// Power is the objective value: Activity weighted by the paper's
	// class weights (power.Weights), the measure Table II reports.
	Power float64
	// Gated is the number of operations carrying at least one guard.
	Gated int
	// Cert describes the optimality status of Power.
	Cert Certificate
}

// Schedule computes a minimum-power schedule for g under cfg. The input
// graph is not modified. An error is returned for malformed
// configurations, for budgets below the critical path, and for resource
// bags no schedule can satisfy.
func Schedule(g *cdfg.Graph, cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("optimal: budget %d must be positive", cfg.Budget)
	}
	ii := cfg.II
	if ii == 0 {
		ii = cfg.Budget
	}
	if ii < 1 || ii > cfg.Budget {
		return nil, fmt.Errorf("optimal: initiation interval %d outside [1,%d]", ii, cfg.Budget)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newSolver(g, cfg, ii).solve()
}

// memberInfo is one gateable operation within a branch candidate.
type memberInfo struct {
	id cdfg.NodeID
	// succs lists the member indices (within the same candidate) that
	// must be kept for this member to be kept: its dataflow successors
	// inside the gated cone, looking through transparent wires.
	succs []int
	// impossible marks a member whose cone escaped the candidate
	// (defensive; the closure in core prevents it).
	impossible bool
}

// candState is one branch candidate prepared for search.
type candState struct {
	cand    core.BranchCandidate
	members []memberInfo
	// decOrder lists member indices successors-first (reverse topological
	// order), the order keep/drop decisions are taken in.
	decOrder []int
}

// decision addresses one (candidate, member) keep/drop choice.
type decision struct{ c, mi int }

// Member decision states.
const (
	stUndecided int8 = iota
	stKept
	stDropped
)

// solveStatus is the outcome of the inner exact resource scheduler.
type solveStatus int

const (
	solveFound solveStatus = iota
	solveInfeasible
	solveTruncated
)

type solver struct {
	g   *cdfg.Graph
	cfg Config
	ii  int
	max int
	n   int

	lat         []int
	class       []cdfg.Class
	isOp        []bool
	staticPreds [][]cdfg.NodeID
	staticSuccs [][]cdfg.NodeID

	cands  []candState
	decs   []decision
	status [][]int8

	// Dynamic serialization edges sel -> member, pushed on keep.
	extraSuccs [][]cdfg.NodeID
	extraPreds [][]cdfg.NodeID

	// Windows and a concrete feasible schedule under the active edge set.
	asap, alap []int
	augOrder   []cdfg.NodeID
	curTimes   []int

	exact  bool
	cache  map[string]float64
	keyBuf []byte

	bestPower float64
	bestTimes []int
	bestKept  [][]bool
	haveBest  bool

	expansions    int
	truncated     bool
	minAbandoned  float64
	haveAbandoned bool

	// Scratch buffers.
	indeg      []int
	queue      []cdfg.NodeID
	ready      []int
	optScratch [][]bool
	slotUse    [][]int
}

func newSolver(g *cdfg.Graph, cfg Config, ii int) *solver {
	n := g.NumNodes()
	s := &solver{g: g, cfg: cfg, ii: ii, n: n}
	s.max = cfg.MaxExpansions
	if s.max <= 0 {
		s.max = DefaultMaxExpansions
	}
	s.lat = make([]int, n)
	s.class = make([]cdfg.Class, n)
	s.isOp = make([]bool, n)
	s.staticPreds = make([][]cdfg.NodeID, n)
	s.staticSuccs = make([][]cdfg.NodeID, n)
	adj := g.SchedAdjacency()
	for _, nd := range g.Nodes() {
		id := nd.ID
		s.lat[id] = nd.Latency()
		s.class[id] = nd.Class()
		s.isOp[id] = nd.IsOp()
		s.staticPreds[id] = adj.Preds(id)
		s.staticSuccs[id] = adj.Succs(id)
	}
	// Validated graphs always have a topological order.
	topo, _ := g.TopoOrder()
	topoPos := make([]int, n)
	for i, id := range topo {
		topoPos[id] = i
	}

	selSet := make(map[cdfg.NodeID]bool)
	for _, bc := range core.BranchCandidates(g) {
		selSet[bc.Sel] = true
		cs := candState{cand: bc}
		pos := make(map[cdfg.NodeID]int, len(bc.Members))
		for i, id := range bc.Members {
			pos[id] = i
		}
		cs.members = make([]memberInfo, len(bc.Members))
		for i, id := range bc.Members {
			mi := memberInfo{id: id}
			seen := make(map[cdfg.NodeID]bool)
			stack := append([]cdfg.NodeID(nil), g.Succs(id)...)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[x] || x == bc.Mux {
					continue
				}
				seen[x] = true
				if j, ok := pos[x]; ok {
					mi.succs = append(mi.succs, j)
					continue
				}
				if g.Node(x).Class() == cdfg.ClassWire {
					stack = append(stack, g.Succs(x)...)
					continue
				}
				mi.impossible = true
			}
			slices.Sort(mi.succs)
			cs.members[i] = mi
		}
		// Decide successors first: descending topological position.
		cs.decOrder = make([]int, len(bc.Members))
		for i := range cs.decOrder {
			cs.decOrder[i] = i
		}
		slices.SortFunc(cs.decOrder, func(a, b int) int {
			return topoPos[bc.Members[b]] - topoPos[bc.Members[a]]
		})
		s.cands = append(s.cands, cs)
	}

	s.status = make([][]int8, len(s.cands))
	s.optScratch = make([][]bool, len(s.cands))
	for c := range s.cands {
		k := len(s.cands[c].members)
		s.status[c] = make([]int8, k)
		s.optScratch[c] = make([]bool, k)
		for _, mi := range s.cands[c].decOrder {
			s.decs = append(s.decs, decision{c: c, mi: mi})
		}
	}

	s.extraSuccs = make([][]cdfg.NodeID, n)
	s.extraPreds = make([][]cdfg.NodeID, n)
	s.asap = make([]int, n)
	s.alap = make([]int, n)
	s.augOrder = make([]cdfg.NodeID, 0, n)
	s.indeg = make([]int, n)
	s.queue = make([]cdfg.NodeID, 0, n)
	s.ready = make([]int, n)
	if cfg.Resources != nil {
		s.slotUse = make([][]int, ii)
		for i := range s.slotUse {
			s.slotUse[i] = make([]int, cdfg.NumClasses)
		}
	}

	// One consistent objective evaluator for the entire search: exact
	// enumeration only if even the all-gated guard set stays within the
	// exact limit (every subset then does too), else the independence
	// approximation throughout.
	s.exact = len(selSet) <= power.MaxExactSelects
	s.cache = make(map[string]float64)
	s.bestPower = math.Inf(1)
	s.minAbandoned = math.Inf(1)
	return s
}

func (s *solver) solve() (*Result, error) {
	if !s.computeWindows() {
		return nil, fmt.Errorf("optimal: budget %d below the critical path", s.cfg.Budget)
	}
	if s.cfg.Resources != nil {
		times, st := s.exactTimes()
		switch st {
		case solveFound:
			s.curTimes = times
		case solveInfeasible:
			return nil, &sched.InfeasibleError{Budget: s.cfg.Budget, Reason: "no schedule fits the resource bag " + s.cfg.Resources.String()}
		case solveTruncated:
			s.truncated = true
			s.noteAbandoned(s.bound())
			s.curTimes = nil
		}
	} else {
		s.curTimes = cloneInts(s.asap)
	}
	if s.curTimes != nil {
		empty := make([][]bool, len(s.cands))
		for c := range empty {
			empty[c] = make([]bool, len(s.cands[c].members))
		}
		s.setBest(s.evalKept(empty), cloneInts(s.curTimes), empty)
	}
	s.adoptSeed()
	if !s.haveBest {
		return nil, fmt.Errorf("optimal: expansion budget %d exhausted before any schedule was found", s.max)
	}
	if s.curTimes != nil {
		s.dfs(0)
	}
	return s.assemble()
}

// adoptSeed installs the warm-start incumbent: the seed schedule's times
// together with the maximal gating those times realize. Invalid seeds are
// ignored.
func (s *solver) adoptSeed() {
	t := s.cfg.Seed
	if len(t) != s.n {
		return
	}
	trial := &sched.Schedule{Graph: s.g, Steps: s.cfg.Budget, II: s.ii, Time: t.Clone()}
	if trial.Validate(s.cfg.Resources) != nil {
		return
	}
	kept := s.keptFromTimes(t)
	if p := s.evalKept(kept); !s.haveBest || p < s.bestPower {
		s.setBest(p, cloneInts(t), kept)
	}
}

// keptFromTimes returns, per candidate, the maximal successor-closed
// subset of members whose serialization constraint the given times
// satisfy.
func (s *solver) keptFromTimes(t []int) [][]bool {
	kept := make([][]bool, len(s.cands))
	for c := range s.cands {
		cs := &s.cands[c]
		kept[c] = make([]bool, len(cs.members))
		sel := cs.cand.Sel
		for _, mi := range cs.decOrder { // successors first
			m := &cs.members[mi]
			ok := !m.impossible && t[m.id] >= t[sel]+s.lat[m.id]
			if ok {
				for _, si := range m.succs {
					if !kept[c][si] {
						ok = false
						break
					}
				}
			}
			kept[c][mi] = ok
		}
	}
	return kept
}

func (s *solver) setBest(p float64, times []int, kept [][]bool) {
	s.bestPower = p
	s.bestTimes = times
	s.bestKept = make([][]bool, len(kept))
	for c := range kept {
		s.bestKept[c] = append([]bool(nil), kept[c]...)
	}
	s.haveBest = true
}

func (s *solver) noteAbandoned(b float64) {
	if b < s.minAbandoned {
		s.minAbandoned = b
	}
	s.haveAbandoned = true
}

// dfs explores the keep/drop decision at index idx. Invariant: asap/alap/
// augOrder/curTimes describe a feasible state for the currently pushed
// edge set.
func (s *solver) dfs(idx int) {
	b := s.bound()
	if idx == len(s.decs) {
		if b < s.bestPower {
			s.setBest(b, cloneInts(s.curTimes), s.snapshotKept())
		}
		return
	}
	if b >= s.bestPower {
		return
	}
	if s.expansions >= s.max {
		s.truncated = true
		s.noteAbandoned(b)
		return
	}
	s.expansions++

	d := s.decs[idx]
	cs := &s.cands[d.c]
	m := &cs.members[d.mi]
	st := s.status[d.c]

	canKeep := !m.impossible
	if canKeep {
		for _, si := range m.succs {
			if st[si] != stKept {
				canKeep = false
				break
			}
		}
	}
	if canKeep {
		sel := cs.cand.Sel
		savedASAP, savedALAP, savedOrder, savedTimes := s.saveWindows()
		s.pushEdge(sel, m.id)
		st[d.mi] = stKept
		feasible := s.computeWindows()
		if feasible && s.cfg.Resources != nil {
			times, solveSt := s.exactTimes()
			switch solveSt {
			case solveFound:
				s.curTimes = times
			case solveTruncated:
				s.truncated = true
				s.noteAbandoned(b)
				feasible = false
			default:
				feasible = false
			}
		} else if feasible {
			s.curTimes = cloneInts(s.asap)
		}
		if feasible {
			s.dfs(idx + 1)
		}
		st[d.mi] = stUndecided
		s.popEdge(sel, m.id)
		s.restoreWindows(savedASAP, savedALAP, savedOrder, savedTimes)
	}

	st[d.mi] = stDropped
	s.dfs(idx + 1)
	st[d.mi] = stUndecided
}

// bound returns an admissible lower bound for every completion of the
// current partial assignment: the power of the optimistic guard set that
// keeps every decided-kept member plus every undecided member still
// individually compatible with the current windows (windows only tighten
// as serialization edges accumulate).
func (s *solver) bound() float64 {
	for c := range s.cands {
		cs := &s.cands[c]
		st := s.status[c]
		ob := s.optScratch[c]
		sel := cs.cand.Sel
		for _, mi := range cs.decOrder { // successors first
			m := &cs.members[mi]
			switch st[mi] {
			case stKept:
				ob[mi] = true
			case stDropped:
				ob[mi] = false
			default:
				ok := !m.impossible && s.asap[sel]+s.lat[m.id] <= s.alap[m.id]
				if ok {
					for _, si := range m.succs {
						if !ob[si] {
							ok = false
							break
						}
					}
				}
				ob[mi] = ok
			}
		}
	}
	return s.evalKept(s.optScratch)
}

func (s *solver) snapshotKept() [][]bool {
	kept := make([][]bool, len(s.cands))
	for c := range s.cands {
		st := s.status[c]
		kept[c] = make([]bool, len(st))
		for mi := range st {
			kept[c][mi] = st[mi] == stKept
		}
	}
	return kept
}

// evalKept returns the objective value of a kept-set family, memoized on
// its canonical encoding.
func (s *solver) evalKept(kept [][]bool) float64 {
	key := s.keyBuf[:0]
	for c := range kept {
		key = append(key, '|')
		for mi, k := range kept[c] {
			if k {
				key = strconv.AppendInt(key, int64(mi), 36)
				key = append(key, ',')
			}
		}
	}
	s.keyBuf = key
	if p, ok := s.cache[string(key)]; ok {
		return p
	}
	p := s.activityFor(s.buildGuards(kept)).WeightedPower(s.g, power.Weights)
	s.cache[string(key)] = p
	return p
}

// buildGuards lowers a kept-set family into the simulator guard map,
// deduplicating identical (select, polarity) pairs exactly like the
// heuristic pass does.
func (s *solver) buildGuards(kept [][]bool) sim.Guards {
	guards := make(sim.Guards)
	for c := range kept {
		cs := &s.cands[c]
		gd := sim.Guard{Sel: cs.cand.Sel, WhenTrue: cs.cand.WhenTrue}
		for mi, k := range kept[c] {
			if !k {
				continue
			}
			id := cs.members[mi].id
			dup := false
			for _, have := range guards[id] {
				if have == gd {
					dup = true
					break
				}
			}
			if !dup {
				guards[id] = append(guards[id], gd)
			}
		}
	}
	return guards
}

// activityFor evaluates guard activity on the solver's one evaluator:
// power.AnalyzeExact in exact mode, the independence approximation
// otherwise (AnalyzeExact's own fallback, taken once for the whole
// search). AnalyzeExact reads no order from the graph, so the solver's
// own graph serves, without the serializing control edges.
func (s *solver) activityFor(guards sim.Guards) power.Activity {
	if s.exact {
		act, _ := power.AnalyzeExact(s.g, guards)
		return act
	}
	return power.Independent(s.g, guards)
}

func (s *solver) pushEdge(from, to cdfg.NodeID) {
	s.extraSuccs[from] = append(s.extraSuccs[from], to)
	s.extraPreds[to] = append(s.extraPreds[to], from)
}

func (s *solver) popEdge(from, to cdfg.NodeID) {
	s.extraSuccs[from] = s.extraSuccs[from][:len(s.extraSuccs[from])-1]
	s.extraPreds[to] = s.extraPreds[to][:len(s.extraPreds[to])-1]
}

func (s *solver) saveWindows() (asap, alap []int, order []cdfg.NodeID, times []int) {
	return cloneInts(s.asap), cloneInts(s.alap), append([]cdfg.NodeID(nil), s.augOrder...), s.curTimes
}

func (s *solver) restoreWindows(asap, alap []int, order []cdfg.NodeID, times []int) {
	copy(s.asap, asap)
	copy(s.alap, alap)
	s.augOrder = append(s.augOrder[:0], order...)
	s.curTimes = times
}

// computeWindows recomputes ASAP/ALAP and the topological order of the
// dependence graph augmented with the active serialization edges. It
// reports false when the augmented graph is cyclic or some node's window
// is empty under the budget.
func (s *solver) computeWindows() bool {
	n := s.n
	for i := 0; i < n; i++ {
		s.indeg[i] = len(s.staticPreds[i]) + len(s.extraPreds[i])
		s.ready[i] = 0
	}
	q := s.queue[:0]
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			q = append(q, cdfg.NodeID(i))
		}
	}
	order := s.augOrder[:0]
	for head := 0; head < len(q); head++ {
		id := q[head]
		order = append(order, id)
		t := s.ready[id] + s.lat[id]
		s.asap[id] = t
		relax := func(succ cdfg.NodeID) {
			if t > s.ready[succ] {
				s.ready[succ] = t
			}
			s.indeg[succ]--
			if s.indeg[succ] == 0 {
				q = append(q, succ)
			}
		}
		for _, succ := range s.staticSuccs[id] {
			relax(succ)
		}
		for _, succ := range s.extraSuccs[id] {
			relax(succ)
		}
	}
	s.queue = q[:0]
	s.augOrder = order
	if len(order) != n {
		return false // cycle among serialization constraints
	}
	budget := s.cfg.Budget
	for i := 0; i < n; i++ {
		s.alap[i] = budget
	}
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		limit := budget
		lower := func(succ cdfg.NodeID) {
			if c := s.alap[succ] - s.lat[succ]; c < limit {
				limit = c
			}
		}
		for _, succ := range s.staticSuccs[id] {
			lower(succ)
		}
		for _, succ := range s.extraSuccs[id] {
			lower(succ)
		}
		s.alap[id] = limit
	}
	for i := 0; i < n; i++ {
		if s.asap[i] > s.alap[i] {
			return false
		}
	}
	return true
}

// exactTimes finds one concrete schedule satisfying the augmented
// dependence graph, the budget and the fixed resource bag, by
// deterministic backtracking over (operation, control step) assignments
// in augmented topological order with modulo-II slot accounting. The
// first schedule found (earliest-step-first) is returned.
func (s *solver) exactTimes() ([]int, solveStatus) {
	t := make([]int, s.n)
	for i := range t {
		t[i] = -1
	}
	for i := range s.slotUse {
		for c := range s.slotUse[i] {
			s.slotUse[i][c] = 0
		}
	}
	st := s.assignNode(0, t)
	if st == solveFound {
		return t, solveFound
	}
	return nil, st
}

func (s *solver) assignNode(pos int, t []int) solveStatus {
	if pos == len(s.augOrder) {
		return solveFound
	}
	id := s.augOrder[pos]
	ready := 0
	for _, p := range s.staticPreds[id] {
		if t[p] > ready {
			ready = t[p]
		}
	}
	for _, p := range s.extraPreds[id] {
		if t[p] > ready {
			ready = t[p]
		}
	}
	if !s.isOp[id] {
		t[id] = ready + s.lat[id]
		st := s.assignNode(pos+1, t)
		if st != solveFound {
			t[id] = -1
		}
		return st
	}
	if s.expansions >= s.max {
		return solveTruncated
	}
	s.expansions++
	cl := s.class[id]
	limit, limited := s.cfg.Resources[cl]
	truncated := false
	for step := ready + s.lat[id]; step <= s.alap[id]; step++ {
		slot := (step - 1) % s.ii
		if limited && s.slotUse[slot][cl] >= limit {
			continue
		}
		s.slotUse[slot][cl]++
		t[id] = step
		st := s.assignNode(pos+1, t)
		if st == solveFound {
			return solveFound
		}
		s.slotUse[slot][cl]--
		t[id] = -1
		if st == solveTruncated {
			truncated = true
			break
		}
	}
	if truncated {
		return solveTruncated
	}
	return solveInfeasible
}

// assemble builds the Result from the incumbent. It adds only control
// edges, so a fork of the input graph carries them.
func (s *solver) assemble() (*Result, error) {
	fork := s.g.Fork()
	for c := range s.cands {
		cs := &s.cands[c]
		set := make(cdfg.NodeSet)
		for mi, k := range s.bestKept[c] {
			if k {
				set[cs.members[mi].id] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		for _, top := range core.GatedTops(fork, set) {
			if fork.HasControlEdge(cs.cand.Sel, top) {
				continue
			}
			if err := fork.AddControlEdge(cs.cand.Sel, top); err != nil {
				return nil, fmt.Errorf("optimal: serializing gated top: %w", err)
			}
		}
	}
	schedule := &sched.Schedule{
		Graph: fork,
		Steps: s.cfg.Budget,
		II:    s.ii,
		Time:  append(sched.Times(nil), s.bestTimes...),
	}
	if err := schedule.Validate(s.cfg.Resources); err != nil {
		return nil, fmt.Errorf("optimal: internal error: best schedule invalid: %w", err)
	}
	// The incumbent's power came through the memo; evaluating its guards
	// afresh must give it back bit for bit, or the memo's keys or the
	// incumbent's bookkeeping are wrong.
	guards := s.buildGuards(s.bestKept)
	act := s.activityFor(guards)
	if got := act.WeightedPower(s.g, power.Weights); got != s.bestPower {
		return nil, fmt.Errorf("optimal: internal error: search evaluator %v disagrees with power analysis %v", s.bestPower, got)
	}
	res := Result{
		Schedule: schedule,
		Guards:   guards,
		Activity: act,
		Exact:    s.exact,
		Power:    s.bestPower,
		Gated:    len(guards),
		Cert: Certificate{
			Optimal:    !s.truncated,
			LowerBound: s.bestPower,
			Expansions: s.expansions,
		},
	}
	if s.truncated && s.haveAbandoned && s.minAbandoned < res.Cert.LowerBound {
		res.Cert.LowerBound = s.minAbandoned
	}
	if s.cfg.Resources != nil {
		res.Resources = s.cfg.Resources.Clone()
	} else {
		res.Resources = schedule.Usage()
	}
	return &res, nil
}

func cloneInts(v []int) []int {
	return append([]int(nil), v...)
}
