package power

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/sim"
)

// Weights is the paper's relative power weight table (Section V).
var Weights = map[cdfg.Class]float64{
	cdfg.ClassMux:  1,
	cdfg.ClassComp: 4,
	cdfg.ClassAdd:  3,
	cdfg.ClassSub:  3,
	cdfg.ClassMul:  20,
}

// MaxExactSelects is the largest distinct-select count AnalyzeExact (and
// its scalar reference) enumerates exactly: 2^26 outcomes. The
// word-parallel evaluator walks 64 joint outcomes per machine word, so the
// worst case costs 2^20 word-operation blocks — comparable to what the
// scalar walk paid for 2^20 outcomes when the bound was 20. Beyond it both
// fall back to the independence approximation (Independent). Exported so
// callers that must keep a whole family of guard-set evaluations on one
// consistent evaluator (the exact-scheduling branch-and-bound) can decide
// the mode up front.
const MaxExactSelects = 26

// Activity holds per-node execution probabilities under the equiprobable
// select model. Interface nodes and wiring have probability 1 but carry no
// weight.
type Activity struct {
	// Prob is indexed by NodeID.
	Prob []float64
}

// ExpectedOps returns the expected number of executions per class: the
// "Number of Operations" columns of Table II.
func (a Activity) ExpectedOps(g *cdfg.Graph) map[cdfg.Class]float64 {
	out := make(map[cdfg.Class]float64)
	for _, n := range g.Nodes() {
		if n.IsOp() {
			out[n.Class()] += a.Prob[n.ID]
		}
	}
	return out
}

// WeightedPower returns sum(weight * probability) over all operations: the
// average datapath power per computation in weight units.
func (a Activity) WeightedPower(g *cdfg.Graph, weights map[cdfg.Class]float64) float64 {
	total := 0.0
	for _, n := range g.Nodes() {
		if n.IsOp() {
			total += weightOf(weights, n.Class()) * a.Prob[n.ID]
		}
	}
	return total
}

// weightOf returns class c's weight, 1 when weights lists none.
func weightOf(weights map[cdfg.Class]float64, c cdfg.Class) float64 {
	if w, ok := weights[c]; ok {
		return w
	}
	return 1
}

// Ungated returns the all-ops-execute activity, the paper's baseline
// ("without power management all the operations are always executed").
func Ungated(g *cdfg.Graph) Activity {
	p := make([]float64, g.NumNodes())
	for i := range p {
		p[i] = 1
	}
	return Activity{Prob: p}
}

// Reduction returns the fractional datapath power saving of the gated
// activity against the ungated baseline (the last column of Table II).
func Reduction(g *cdfg.Graph, gated Activity, weights map[cdfg.Class]float64) float64 {
	// Ungated(g).WeightedPower(g, weights), summed in the same order
	// without a vector of ones: a sweep computes it at every point.
	base := 0.0
	for _, n := range g.Nodes() {
		if n.IsOp() {
			base += weightOf(weights, n.Class())
		}
	}
	if base == 0 {
		return 0
	}
	return 1 - gated.WeightedPower(g, weights)/base
}

// DistinctSelects returns the sorted distinct select sources appearing in
// the guard map: k, the exponent of the exact enumeration.
func DistinctSelects(guards sim.Guards) []cdfg.NodeID {
	set := make(map[cdfg.NodeID]bool)
	for _, gl := range guards {
		for _, gd := range gl {
			set[gd.Sel] = true
		}
	}
	out := make([]cdfg.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Independent is the independence approximation of the activity: each
// guard halves its operation's execution probability, ignoring nested
// shutdown and shared selects. AnalyzeExact falls back to it past
// MaxExactSelects.
func Independent(g *cdfg.Graph, guards sim.Guards) Activity {
	prob := make([]float64, g.NumNodes())
	for _, nd := range g.Nodes() {
		p := 1.0
		for range guards[nd.ID] {
			p /= 2
		}
		prob[nd.ID] = p
	}
	return Activity{Prob: prob}
}

// lanePattern[i] is the value of select index i across one 64-outcome
// block: bit j of lanePattern[i] is bit i of the joint outcome base+j.
// Selects with index >= 6 are constant across a block (all-0s or all-1s,
// taken from the block number), so only the low six need patterns.
var lanePattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // bit 0 of the outcome: 0101... per lane
	0xCCCCCCCCCCCCCCCC, // bit 1
	0xF0F0F0F0F0F0F0F0, // bit 2
	0xFF00FF00FF00FF00, // bit 3
	0xFFFF0000FFFF0000, // bit 4
	0xFFFFFFFF00000000, // bit 5
}

// AnalyzeExact computes execution probabilities by enumerating the joint
// outcomes of the distinct controlling signals. An operation executes
// under an outcome when, for every guard, the select has the required
// value AND the select-producing operation itself executes (nested
// shut-down: a dead comparator enables nothing).
//
// The selects fall into independent groups: a guarded node joins the
// group of every select it is guarded on, so two guarded nodes share a
// group exactly when their guards connect them. Each group is enumerated
// on its own, over the 2^k_g outcomes of its k_g selects. A node's count
// over those outcomes divided by 2^k_g equals its count over all 2^k
// outcomes divided by 2^k bit for bit: the other groups' selects are fair
// coins it never reads, and dividing by a power of two is exact.
//
// The enumeration is word-parallel: 64 joint outcomes are packed per
// uint64 lane word. For a group's select index i, its value over outcome
// v is bit i of v, so per 64-outcome block each select's lane word is
// either a fixed periodic pattern (i < 6) or all-0s/all-1s taken from the
// block number (i >= 6). A node's execution set becomes branch-free
// AND/AND-NOT word operations over its compiled guards, and counts come
// from popcounts. The probabilities are bit-identical to the scalar walk
// over all 2^k outcomes (kept as analyzeExactScalar and checked
// differentially).
//
// The order the guarded nodes are visited in is read from the guards
// alone, each guarded select before the nodes guarded on it, so the
// graph's edges play no part. A guard map whose selects guard one another
// in a cycle has no such order and yields (Ungated(g), false) at any k.
//
// When k, counted over the whole map, exceeds MaxExactSelects the
// function falls back to the independence approximation (Independent)
// and reports it via the bool result (false = approximate). The compiled
// guard tables and the lane words are reused from call to call, so a warm
// call allocates only the Activity it returns.
func AnalyzeExact(g *cdfg.Graph, guards sim.Guards) (Activity, bool) {
	n := g.NumNodes()
	if len(guards) == 0 {
		return Ungated(g), true
	}
	c := walks.Get()
	defer walks.Put(c)
	k, ok := c.compile(guards, n)
	if !ok {
		return Ungated(g), false
	}
	if k > MaxExactSelects {
		return Independent(g, guards), false
	}
	// execW[id] holds node id's execution set over the current block of
	// its group's outcomes, one bit per outcome. Unguarded nodes execute
	// everywhere and are never overwritten; a guarded node is rewritten
	// each block before any node guarded on it reads it. counts[i] counts
	// the outcomes of its group under which guarded[i] executes.
	execW := scratch.Grow(c.execW, n)
	counts := scratch.Grow(c.counts, len(c.guarded))
	selVal := scratch.Grow(c.selVal, max(k, 6))
	c.execW, c.counts, c.selVal = execW, counts, selVal
	for i := range execW {
		execW[i] = ^uint64(0)
	}
	clear(counts)
	copy(selVal, lanePattern[:])
	node, guard := 0, 0
	for _, grp := range c.groups {
		countGroup(grp.k, c.list[guard:grp.guards], execW, selVal, counts[node:grp.nodes])
		node, guard = grp.nodes, grp.guards
	}
	return c.activity(n, 0, counts), true
}

// countGroup walks the 2^k outcomes of one group of k selects, 64 to a
// block. list holds the group's compiled guards, each guarded node's in
// one run whose last guard names the node; counts[i] gathers the outcomes
// under which the group's i-th guarded node executes.
func countGroup(k int, list []wGuard, execW, selVal []uint64, counts []int64) {
	// laneMask keeps only the populated lanes when the group has fewer
	// than 64 joint outcomes (k < 6).
	laneMask, blocks := ^uint64(0), 1
	if k < 6 {
		laneMask = 1<<(1<<uint(k)) - 1
	} else {
		blocks = 1 << uint(k-6)
	}
	for b := 0; b < blocks; b++ {
		for i := 6; i < k; i++ {
			if b>>(uint(i)-6)&1 == 1 {
				selVal[i] = ^uint64(0)
			} else {
				selVal[i] = 0
			}
		}
		w, i := laneMask, 0
		for _, gd := range list {
			w &= execW[gd.sel] & (selVal[gd.selIdx] ^ gd.invert)
			if gd.node >= 0 {
				execW[gd.node] = w
				counts[i] += int64(bits.OnesCount64(w))
				w, i = laneMask, i+1
			}
		}
	}
}

// wGuard is one compiled gating condition of the word-parallel evaluator:
// the guarded node executes where the select's execution word is set and
// the select's value word matches the wanted polarity.
type wGuard struct {
	// sel indexes execW: the node producing the controlling signal.
	sel cdfg.NodeID
	// selIdx is the select's index among its group's selects.
	selIdx int
	// invert is all-1s when the guard wants select=0 (the select value
	// word is XOR-flipped before masking), 0 when it wants select=1.
	invert uint64
	// node is the guarded node on its last guard, -1 on the others.
	node cdfg.NodeID
}

// walkGroup is one independent group of selects in a compiled walk: its
// guarded nodes end at index nodes of guarded and its guards at index
// guards of list, each range starting where the previous group's ends,
// and k is the number of selects they are guarded on.
type walkGroup struct{ nodes, guards, k int }

// Walk states of a node in compile's depth-first walk over the guards.
const (
	unguarded uint8 = iota
	pending
	visiting
	visited
)

// exactWalk is the working memory of one exact activity walk: the guard
// map compiled to slice-indexed tables, and the word-parallel evaluator's
// lane words. It waits in walks between calls.
type exactWalk struct {
	// up is a union-find forest over the nodes that joins each guarded
	// node with its guards' selects; a group's root is its least node.
	up    []cdfg.NodeID
	state []uint8
	// selIdx holds, per node, 1 + its index among its group's selects,
	// or 0 for a node that selects nothing.
	selIdx []int
	// guarded lists the guarded nodes group by group, each guarded select
	// before the nodes guarded on it, and list their guards in the same
	// order.
	guarded []cdfg.NodeID
	list    []wGuard
	groups  []walkGroup

	execW  []uint64
	counts []int64
	selVal []uint64
}

// walks holds the idle walks of AnalyzeExact and its scalar reference.
var walks scratch.List[exactWalk]

// compile lowers the guard map of an n-node graph into slice-indexed
// form, group by group, and returns k, the number of distinct selects:
// the exponent of the whole map's enumeration. The guarded nodes are
// listed by a depth-first walk over the guards, in ascending ID order,
// then grouped without reordering a group, so a guarded select's
// execution word is final before any node guarded on it reads it. It
// reports false when selects guard one another in a cycle.
func (c *exactWalk) compile(guards sim.Guards, n int) (k int, ok bool) {
	c.up, c.state, c.selIdx = scratch.Grow(c.up, n), scratch.Grow(c.state, n), scratch.Grow(c.selIdx, n)
	for i := range c.up {
		c.up[i], c.state[i], c.selIdx[i] = cdfg.NodeID(i), unguarded, 0
	}
	for id, gl := range guards {
		for _, gd := range gl {
			a, b := c.find(id), c.find(gd.Sel)
			c.up[max(a, b)] = min(a, b)
			c.state[id] = pending
		}
	}
	c.guarded = c.guarded[:0]
	for id, st := range c.state {
		if st == pending && !c.visit(guards, cdfg.NodeID(id)) {
			return 0, false
		}
	}
	slices.SortStableFunc(c.guarded, func(a, b cdfg.NodeID) int { return int(c.find(a) - c.find(b)) })
	c.groups, c.list = c.groups[:0], c.list[:0]
	for i, id := range c.guarded {
		if i == 0 || c.find(id) != c.find(c.guarded[i-1]) {
			c.groups = append(c.groups, walkGroup{})
		}
		grp := &c.groups[len(c.groups)-1]
		gl := guards[id]
		for j, gd := range gl {
			if c.selIdx[gd.Sel] == 0 {
				k, grp.k = k+1, grp.k+1
				c.selIdx[gd.Sel] = grp.k
			}
			w := wGuard{sel: gd.Sel, selIdx: c.selIdx[gd.Sel] - 1, invert: ^uint64(0), node: -1}
			if gd.WhenTrue {
				w.invert = 0
			}
			if j == len(gl)-1 {
				w.node = id
			}
			c.list = append(c.list, w)
		}
		grp.nodes, grp.guards = i+1, len(c.list)
	}
	return k, true
}

// find returns the root of x's tree in up, halving the path on the way.
func (c *exactWalk) find(x cdfg.NodeID) cdfg.NodeID {
	for c.up[x] != x {
		c.up[x] = c.up[c.up[x]]
		x = c.up[x]
	}
	return x
}

// visit appends guarded node id to guarded after every pending guarded
// select it is guarded on. It reports false when the guards lead back to
// a node still being visited: a cycle.
func (c *exactWalk) visit(guards sim.Guards, id cdfg.NodeID) bool {
	c.state[id] = visiting
	for _, gd := range guards[id] {
		switch c.state[gd.Sel] {
		case visiting:
			return false
		case pending:
			if !c.visit(guards, gd.Sel) {
				return false
			}
		}
	}
	c.state[id] = visited
	c.guarded = append(c.guarded, id)
	return true
}

// activity turns the per-guarded-node outcome counts of a walk into the
// probabilities of an n-node graph, 1 for every unguarded node. Each
// count was taken over 2^k outcomes or, when k is 0, over the 2^k_g
// outcomes of its own group's selects.
func (c *exactWalk) activity(n, k int, counts []int64) Activity {
	prob := make([]float64, n)
	for i := range prob {
		prob[i] = 1
	}
	lo := 0
	for _, grp := range c.groups {
		total := int64(1) << uint(max(k, grp.k))
		for i := lo; i < grp.nodes; i++ {
			prob[c.guarded[i]] = float64(counts[i]) / float64(total)
		}
		lo = grp.nodes
	}
	return Activity{Prob: prob}
}

// analyzeExactScalar is the scalar reference implementation of
// AnalyzeExact: every one of the 2^k joint outcomes of the whole map's
// selects, walked one outcome at a time, with each group's selects on
// the bits above the earlier groups' ones. It is the differential-testing
// oracle for the word-parallel evaluator — the two must agree bit for bit
// on every graph.
func analyzeExactScalar(g *cdfg.Graph, guards sim.Guards) (Activity, bool) {
	n := g.NumNodes()
	if len(guards) == 0 {
		return Ungated(g), true
	}
	c := walks.Get()
	defer walks.Put(c)
	k, ok := c.compile(guards, n)
	if !ok {
		return Ungated(g), false
	}
	if k > MaxExactSelects {
		return Independent(g, guards), false
	}
	counts := make([]int64, len(c.guarded))
	exec := make([]bool, n)
	for i := range exec {
		exec[i] = true // unguarded nodes always execute
	}
	total := int64(1) << uint(k)
	for v := int64(0); v < total; v++ {
		lo, base, i := 0, 0, 0
		for _, grp := range c.groups {
			e := true
			for _, gd := range c.list[lo:grp.guards] {
				want := int64(0)
				if gd.invert == 0 {
					want = 1
				}
				e = e && exec[gd.sel] && v>>uint(base+gd.selIdx)&1 == want
				if gd.node >= 0 {
					exec[gd.node] = e
					if e {
						counts[i]++
					}
					e, i = true, i+1
				}
			}
			lo, base = grp.guards, base+grp.k
		}
	}
	return c.activity(n, k, counts), true
}

// AnalyzeExactReference exposes the scalar reference implementation for
// differential testing (the internal/verify oracle and the power package's
// own fuzz target compare it against the word-parallel AnalyzeExact). It
// is not a public analysis entry point: production callers always use
// AnalyzeExact.
func AnalyzeExactReference(g *cdfg.Graph, guards sim.Guards) (Activity, bool) {
	return analyzeExactScalar(g, guards)
}

// MonteCarlo estimates execution probabilities by running the gated
// schedule on random input vectors (uniform over the datapath width). This
// reflects true data correlations rather than the equiprobable-select
// idealization; the paper's Table II uses the idealization, so tests treat
// this as a sanity oracle.
func MonteCarlo(s *sched.Schedule, guards sim.Guards, width, runs int, seed int64) (Activity, error) {
	if runs <= 0 {
		return Activity{}, fmt.Errorf("power: runs must be positive, got %d", runs)
	}
	g := s.Graph
	prog, err := sim.CompileScheduled(s, guards, sim.Options{Width: width})
	if err != nil {
		return Activity{}, err
	}
	r := rand.New(rand.NewSource(seed))
	counts := make([]int, g.NumNodes())
	limit := int64(1) << uint(width)
	in := make(map[string]int64, len(g.Inputs()))
	for i := 0; i < runs; i++ {
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = r.Int63n(limit)
		}
		res, err := prog.Run(in)
		if err != nil {
			return Activity{}, err
		}
		for id, ex := range res.Executed {
			if ex {
				counts[id]++
			}
		}
	}
	prob := make([]float64, g.NumNodes())
	for i, c := range counts {
		prob[i] = float64(c) / float64(runs)
	}
	return Activity{Prob: prob}, nil
}

// DeriveWeights computes a weight table from gate-level unit costs (a
// function of the datapath width), used by the ablation that replaces the
// paper's measured weights with weights derived from this repository's own
// RTL generators. The costs map gives per-class energy-per-operation in
// arbitrary units; classes absent default to weight 1.
func DeriveWeights(costs map[cdfg.Class]float64) map[cdfg.Class]float64 {
	base, ok := costs[cdfg.ClassMux]
	if !ok || base <= 0 {
		base = 1
	}
	out := make(map[cdfg.Class]float64, len(costs))
	for c, v := range costs {
		out[c] = v / base
	}
	return out
}
