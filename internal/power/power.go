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

// AnalyzeExact computes execution probabilities by enumerating all 2^k
// joint outcomes of the k distinct controlling signals. An operation
// executes under an outcome when, for every guard, the select has the
// required value AND the select-producing operation itself executes
// (nested shut-down: a dead comparator enables nothing).
//
// The enumeration is word-parallel: 64 joint outcomes are packed per
// uint64 lane word. For select index i, its value over outcome v is bit i
// of v, so per 64-outcome block each select's lane word is either a fixed
// periodic pattern (i < 6) or all-0s/all-1s taken from the block number
// (i >= 6). A node's execution set becomes branch-free AND/AND-NOT word
// operations over its compiled guards, and counts come from popcounts.
// The probabilities are bit-identical to the scalar outcome walk (kept as
// analyzeExactScalar and checked differentially).
//
// When k exceeds MaxExactSelects the function falls back to the
// independence approximation (Independent) and reports it via the bool
// result (false = approximate). The compiled guard tables and the lane
// words are reused from call to call, so a warm call allocates only the
// Activity it returns.
func AnalyzeExact(g *cdfg.Graph, guards sim.Guards) (Activity, bool) {
	n := g.NumNodes()
	if len(guards) == 0 {
		return Ungated(g), true
	}
	c := walks.Get()
	defer walks.Put(c)
	k := c.countSelects(g, guards)
	if k > MaxExactSelects {
		return Independent(g, guards), false
	}
	if !c.compile(g, guards) {
		// Callers hold validated graphs; treat as all-on.
		return Ungated(g), false
	}
	// laneMask keeps only the populated lanes when fewer than 64 joint
	// outcomes exist (k < 6).
	laneMask := ^uint64(0)
	if k < 6 {
		laneMask = 1<<(1<<uint(k)) - 1
	}
	blocks := 1
	if k > 6 {
		blocks = 1 << uint(k-6)
	}
	// execW[id] holds node id's execution set over the current block, one
	// bit per outcome. Unguarded nodes execute everywhere and are never
	// overwritten; guarded nodes are fully rewritten each block before
	// any consumer reads them (topological order). counts[i] counts the
	// outcomes under which guarded[i] executes.
	execW := scratch.Grow(c.execW, n)
	counts := scratch.Grow(c.counts, len(c.guarded))
	selVal := scratch.Grow(c.selVal, k)
	c.execW, c.counts, c.selVal = execW, counts, selVal
	for i := range execW {
		execW[i] = ^uint64(0)
	}
	clear(counts)
	for i := 0; i < k && i < 6; i++ {
		selVal[i] = lanePattern[i]
	}
	for b := 0; b < blocks; b++ {
		for i := 6; i < k; i++ {
			if b>>(uint(i)-6)&1 == 1 {
				selVal[i] = ^uint64(0)
			} else {
				selVal[i] = 0
			}
		}
		for i, id := range c.guarded {
			w := laneMask
			for _, gd := range c.guardsOf(i) {
				w &= execW[gd.sel] & (selVal[gd.selIdx] ^ gd.invert)
			}
			execW[id] = w
			counts[i] += int64(bits.OnesCount64(w))
		}
	}
	return c.activity(n, k, counts), true
}

// wGuard is one compiled gating condition of the word-parallel evaluator:
// the guarded node executes where the select's execution word is set and
// the select's value word matches the wanted polarity.
type wGuard struct {
	// sel indexes execW: the node producing the controlling signal.
	sel cdfg.NodeID
	// selIdx is the select's index in the distinct-select ordering.
	selIdx int
	// invert is all-1s when the guard wants select=0 (the select value
	// word is XOR-flipped before masking), 0 when it wants select=1.
	invert uint64
}

// exactWalk is the working memory of one exact activity walk: the guard
// map compiled to slice-indexed tables, and the word-parallel evaluator's
// lane words. It waits in walks between calls.
type exactWalk struct {
	// selIdx holds, per node, 1 + its index among the distinct selects
	// in ascending ID order, or 0 for a node that selects nothing.
	selIdx []int
	// guarded lists the guarded nodes in topological order; node
	// guarded[i]'s guards are list[off[i]:off[i+1]].
	guarded []cdfg.NodeID
	off     []int
	list    []wGuard

	execW  []uint64
	counts []int64
	selVal []uint64
}

// walks holds the idle walks of AnalyzeExact and its scalar reference.
var walks scratch.List[exactWalk]

// countSelects numbers the distinct select sources of guards in ascending
// ID order, the order DistinctSelects returns, and returns their count k:
// the exponent of the exact enumeration.
func (c *exactWalk) countSelects(g *cdfg.Graph, guards sim.Guards) int {
	c.selIdx = scratch.Grow(c.selIdx, g.NumNodes())
	clear(c.selIdx)
	for _, gl := range guards {
		for _, gd := range gl {
			c.selIdx[gd.Sel] = 1
		}
	}
	k := 0
	for id, mark := range c.selIdx {
		if mark != 0 {
			k++
			c.selIdx[id] = k
		}
	}
	return k
}

// compile lowers the guard map into slice-indexed form, listing the
// guarded nodes in topological order so that a select's execution word is
// final before any node guarded on it is evaluated (selects precede their
// muxes' branch cones by construction). It needs the select numbering of
// countSelects, and reports false when the graph has no topological order
// (cyclic).
func (c *exactWalk) compile(g *cdfg.Graph, guards sim.Guards) bool {
	order, err := g.TopoOrder()
	if err != nil {
		return false
	}
	c.guarded, c.off, c.list = c.guarded[:0], append(c.off[:0], 0), c.list[:0]
	for _, id := range order {
		gl := guards[id]
		if len(gl) == 0 {
			continue
		}
		for _, gd := range gl {
			inv := ^uint64(0)
			if gd.WhenTrue {
				inv = 0
			}
			c.list = append(c.list, wGuard{sel: gd.Sel, selIdx: c.selIdx[gd.Sel] - 1, invert: inv})
		}
		c.guarded = append(c.guarded, id)
		c.off = append(c.off, len(c.list))
	}
	return true
}

// guardsOf returns the compiled guards of guarded[i].
func (c *exactWalk) guardsOf(i int) []wGuard { return c.list[c.off[i]:c.off[i+1]] }

// activity turns the per-guarded-node outcome counts of a walk over k
// selects into the probabilities of an n-node graph: 1 for every unguarded
// node.
func (c *exactWalk) activity(n, k int, counts []int64) Activity {
	prob := make([]float64, n)
	for i := range prob {
		prob[i] = 1
	}
	total := int64(1) << uint(k)
	for i, id := range c.guarded {
		prob[id] = float64(counts[i]) / float64(total)
	}
	return Activity{Prob: prob}
}

// analyzeExactScalar is the scalar reference implementation of
// AnalyzeExact: the same 2^k joint-outcome enumeration walked one outcome
// at a time. It is retained verbatim (modulo shared compilation helpers)
// as the differential-testing oracle for the word-parallel evaluator —
// the two must agree bit for bit on every graph.
func analyzeExactScalar(g *cdfg.Graph, guards sim.Guards) (Activity, bool) {
	n := g.NumNodes()
	if len(guards) == 0 {
		return Ungated(g), true
	}
	c := walks.Get()
	defer walks.Put(c)
	k := c.countSelects(g, guards)
	if k > MaxExactSelects {
		return Independent(g, guards), false
	}
	if !c.compile(g, guards) {
		return Ungated(g), false
	}
	counts := make([]int64, len(c.guarded))
	exec := make([]bool, n)
	for i := range exec {
		exec[i] = true // unguarded nodes always execute
	}
	total := int64(1) << uint(k)
	for v := int64(0); v < total; v++ {
		for i, id := range c.guarded {
			e := true
			for _, gd := range c.guardsOf(i) {
				want := int64(0)
				if gd.invert == 0 {
					want = 1
				}
				if !exec[gd.sel] || v>>uint(gd.selIdx)&1 != want {
					e = false
					break
				}
			}
			exec[id] = e
			if e {
				counts[i]++
			}
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
