package cdfg

import (
	"sync"
	"sync/atomic"
)

// analysisMemo caches what a graph derives from its node list: the
// dataflow successor lists and the pure-dataflow analyses, ASAP depth,
// height to output, and the critical path derived from depth. Nodes and
// their argument lists never change once added, so these entries are valid
// exactly while the node count is the one they were computed for. A graph
// under construction therefore never touches its memo: the first use
// after the node list grew drops every entry at once (currentLocked).
// Control edges never affect these entries.
//
// It additionally caches two schedule-dependent results — the topological
// order over data + control edges, and the per-node scheduling adjacency
// of a graph with control edges — which are also dropped when the control
// edges change. A graph without control edges needs no adjacency entry:
// its scheduling adjacency is its dataflow.
//
// The cache is safe for concurrent use: the design-space sweep engine
// evaluates many configurations of one design in parallel, reading the
// design's graph itself and the forks its points make, which share the
// entries that were warm at fork time.
type analysisMemo struct {
	mu sync.Mutex
	// nodes is the node count the entries describe.
	nodes int
	// succs is the dataflow successor lists, nil until first read. Every
	// scheduling walk reads them, so a warm read takes no lock (see
	// dataSuccs); they are written under mu.
	succs    atomic.Pointer[csr]
	depth    []int
	height   []int
	critOK   bool
	critical int
	// topo is the memoized TopoOrder result (successful orders only; a
	// cyclic graph is an error path and recomputes).
	topo []NodeID
	// sched is the scheduling adjacency of a graph with control edges
	// (see SchedAdjacency); nil until first asked.
	sched *schedLists
}

// csr holds per-node adjacency lists in compressed sparse row form: node
// i's list is ids[off[i]:off[i+1]].
type csr struct {
	off []int
	ids []NodeID
}

// row returns node id's list, capped so that an append copies.
func (c *csr) row(id NodeID) []NodeID {
	lo, hi := c.off[id], c.off[id+1]
	return c.ids[lo:hi:hi]
}

// schedLists holds a graph's scheduling adjacency, one table per
// direction.
type schedLists struct {
	preds, succs csr
}

// currentLocked drops every entry if the node list grew since they were
// computed. The caller holds g.memo.mu.
func (g *Graph) currentLocked() {
	if g.memo.nodes == len(g.nodes) {
		return
	}
	g.memo.nodes = len(g.nodes)
	g.memo.succs.Store(nil)
	g.memo.depth = nil
	g.memo.height = nil
	g.memo.critOK = false
	g.memo.topo = nil
	g.memo.sched = nil
}

// invalidateSchedDeps drops only the schedule-dependent cache entries (the
// topological order and the scheduling adjacency). Called when control
// edges change: the pure-dataflow analyses are unaffected and stay warm.
func (g *Graph) invalidateSchedDeps() {
	g.memo.mu.Lock()
	g.memo.topo = nil
	g.memo.sched = nil
	g.memo.mu.Unlock()
}

// shareAnalyses copies the warm cache entries of g into ng (a fresh fork
// with an identical node list). The cached slices are immutable
// once computed and safely shared.
func (g *Graph) shareAnalyses(ng *Graph) {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	g.currentLocked()
	ng.memo.nodes = g.memo.nodes
	ng.memo.succs.Store(g.memo.succs.Load())
	ng.memo.depth = g.memo.depth
	ng.memo.height = g.memo.height
	ng.memo.critOK = g.memo.critOK
	ng.memo.critical = g.memo.critical
	// A fork starts with an identical node list and identical
	// control edges, so the schedule-dependent entries are valid for it
	// too.
	ng.memo.topo = g.memo.topo
	ng.memo.sched = g.memo.sched
}

// dataSuccs returns the dataflow successor lists, building them on the
// first read after the node list last grew.
func (g *Graph) dataSuccs() *csr {
	if s := g.memo.succs.Load(); s != nil && len(s.off) == len(g.nodes)+1 {
		return s
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	return g.dataSuccsLocked()
}

// dataSuccsLocked is dataSuccs for a caller that holds g.memo.mu.
func (g *Graph) dataSuccsLocked() *csr {
	g.currentLocked()
	if s := g.memo.succs.Load(); s != nil {
		return s
	}
	s := g.computeSuccs()
	g.memo.succs.Store(s)
	return s
}

// computeSuccs builds the dataflow successor lists from the argument
// lists in one block: each node's successors in ID order, a node that
// reads a value twice listed twice.
func (g *Graph) computeSuccs() *csr {
	n := len(g.nodes)
	c := &csr{off: make([]int, n+1)}
	for _, nd := range g.nodes {
		for _, a := range nd.Args {
			c.off[a+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	c.ids = make([]NodeID, c.off[n])
	// Fill with off[i] as node i's cursor; afterwards off[i] holds node
	// i's end, which is node i+1's start, so shift the offsets back.
	for _, nd := range g.nodes {
		for _, a := range nd.Args {
			c.ids[c.off[a]] = nd.ID
			c.off[a]++
		}
	}
	copy(c.off[1:], c.off[:n])
	c.off[0] = 0
	return c
}

// PrewarmAnalyses computes and caches the analyses the synthesis flow
// queries repeatedly: depth, height to output, the critical path and the
// topological order. A sweep calls this once on the shared design so every
// per-configuration fork starts warm.
func (g *Graph) PrewarmAnalyses() {
	g.Levels()
	_, _ = g.TopoOrder()
}

// depthMemo returns the cached ASAP depth slice, computing it on a miss.
// Node IDs are a dataflow topological order by construction (add rejects
// forward argument references), so a single pass in ID order suffices.
func (g *Graph) depthMemo() []int {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	g.currentLocked()
	if g.memo.depth != nil {
		return g.memo.depth
	}
	depth := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		earliest := 0
		for _, a := range n.Args {
			if depth[a] > earliest {
				earliest = depth[a]
			}
		}
		depth[n.ID] = earliest + n.Latency()
	}
	g.memo.depth = depth
	return depth
}

// heightMemo returns the cached height-to-output slice, computing it on a
// miss. Reverse ID order is a reverse dataflow topological order.
func (g *Graph) heightMemo() []int {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	succs := g.dataSuccsLocked()
	if g.memo.height != nil {
		return g.memo.height
	}
	height := make([]int, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		below := 0
		for _, s := range succs.row(n.ID) {
			if height[s] > below {
				below = height[s]
			}
		}
		height[n.ID] = below + n.Latency()
	}
	g.memo.height = height
	return height
}

// topoMemo returns the cached topological order, computing it on a miss.
// Only successful orders are cached: a cyclic graph keeps returning its
// error without polluting the memo.
func (g *Graph) topoMemo() ([]NodeID, error) {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	g.currentLocked()
	if g.memo.topo != nil {
		return g.memo.topo, nil
	}
	order, err := g.computeTopoOrder(g.schedAdjacencyLocked())
	if err != nil {
		return nil, err
	}
	g.memo.topo = order
	return order, nil
}

// schedAdjacencyLocked returns the scheduling adjacency, building the
// memo entry of a graph with control edges on a miss. The caller holds
// g.memo.mu.
func (g *Graph) schedAdjacencyLocked() Adjacency {
	succs := g.dataSuccsLocked()
	if len(g.controlEdges) == 0 {
		return Adjacency{g: g, succs: succs}
	}
	if g.memo.sched == nil {
		g.memo.sched = g.computeSchedLists(succs)
	}
	return Adjacency{g: g, succs: succs, lists: g.memo.sched}
}

// computeSchedLists builds the scheduling adjacency of a graph with
// control edges: dataflow first, then control edges in insertion order.
func (g *Graph) computeSchedLists(data *csr) *schedLists {
	n := len(g.nodes)
	p, s := csr{off: make([]int, n+1)}, csr{off: make([]int, n+1)}
	for i, nd := range g.nodes {
		p.off[i+1] = len(nd.Args)
		s.off[i+1] = data.off[i+1] - data.off[i]
	}
	for _, e := range g.controlEdges {
		p.off[e.To+1]++
		s.off[e.From+1]++
	}
	for i := 0; i < n; i++ {
		p.off[i+1] += p.off[i]
		s.off[i+1] += s.off[i]
	}
	p.ids, s.ids = make([]NodeID, p.off[n]), make([]NodeID, s.off[n])
	// Fill with off[i] as node i's cursor, then shift the offsets back as
	// computeSuccs does.
	for i, nd := range g.nodes {
		p.off[i] += copy(p.ids[p.off[i]:], nd.Args)
		s.off[i] += copy(s.ids[s.off[i]:], data.row(NodeID(i)))
	}
	for _, e := range g.controlEdges {
		p.ids[p.off[e.To]] = e.From
		p.off[e.To]++
		s.ids[s.off[e.From]] = e.To
		s.off[e.From]++
	}
	copy(p.off[1:], p.off[:n])
	copy(s.off[1:], s.off[:n])
	p.off[0], s.off[0] = 0, 0
	return &schedLists{preds: p, succs: s}
}

// criticalMemo returns the cached critical path, deriving it from the depth
// cache on a miss.
func (g *Graph) criticalMemo() int {
	depth := g.depthMemo()
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	g.currentLocked()
	if g.memo.critOK {
		return g.memo.critical
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	g.memo.critical = max
	g.memo.critOK = true
	return max
}
