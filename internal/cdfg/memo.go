package cdfg

import "sync"

// analysisMemo caches the pure-dataflow analyses of a graph: ASAP depth,
// height to output, and the critical path derived from depth. These
// depend only on the node list and the dataflow edges (Args), both of
// which are append-only, so they are invalidated only when a node is
// added. Control edges never affect them.
//
// It additionally caches two schedule-dependent results — the topological
// order over data + control edges, and the per-node scheduling adjacency
// of a graph with control edges — which are invalidated when either the
// node list or the control edges change. A graph without control edges
// needs no adjacency entry: its scheduling adjacency is its dataflow.
//
// The cache is safe for concurrent use: the design-space sweep engine
// evaluates many configurations of one design in parallel, reading the
// design's graph itself and the forks its points make, which share the
// entries that were warm at fork time.
type analysisMemo struct {
	mu       sync.Mutex
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

// schedLists holds a graph's scheduling adjacency in compressed sparse row
// form, one table per direction: node i's predecessors are
// preds[predOff[i]:predOff[i+1]], and likewise for successors.
type schedLists struct {
	predOff, succOff []int
	preds, succs     []NodeID
}

// invalidateAnalyses drops every cached analysis. Called when the node list
// changes (the only mutation the pure-dataflow analyses depend on; it also
// invalidates the schedule-dependent entries).
func (g *Graph) invalidateAnalyses() {
	g.memo.mu.Lock()
	g.memo.depth = nil
	g.memo.height = nil
	g.memo.critOK = false
	g.memo.topo = nil
	g.memo.sched = nil
	g.memo.mu.Unlock()
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
	if g.memo.height != nil {
		return g.memo.height
	}
	height := make([]int, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		below := 0
		for _, s := range g.succs[n.ID] {
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
	if len(g.controlEdges) == 0 {
		return Adjacency{g: g}
	}
	if g.memo.sched == nil {
		g.memo.sched = g.computeSchedLists()
	}
	return Adjacency{g: g, lists: g.memo.sched}
}

// computeSchedLists builds the scheduling adjacency of a graph with
// control edges: dataflow first, then control edges in insertion order.
func (g *Graph) computeSchedLists() *schedLists {
	n := len(g.nodes)
	l := &schedLists{predOff: make([]int, n+1), succOff: make([]int, n+1)}
	for i, nd := range g.nodes {
		l.predOff[i+1] = len(nd.Args)
		l.succOff[i+1] = len(g.succs[i])
	}
	for _, e := range g.controlEdges {
		l.predOff[e.To+1]++
		l.succOff[e.From+1]++
	}
	for i := 0; i < n; i++ {
		l.predOff[i+1] += l.predOff[i]
		l.succOff[i+1] += l.succOff[i]
	}
	l.preds, l.succs = make([]NodeID, l.predOff[n]), make([]NodeID, l.succOff[n])
	// Fill with off[i] as node i's cursor; afterwards off[i] holds node
	// i's end, which is node i+1's start, so shift the offsets back.
	for i, nd := range g.nodes {
		l.predOff[i] += copy(l.preds[l.predOff[i]:], nd.Args)
		l.succOff[i] += copy(l.succs[l.succOff[i]:], g.succs[i])
	}
	for _, e := range g.controlEdges {
		l.preds[l.predOff[e.To]] = e.From
		l.predOff[e.To]++
		l.succs[l.succOff[e.From]] = e.To
		l.succOff[e.From]++
	}
	copy(l.predOff[1:], l.predOff[:n])
	copy(l.succOff[1:], l.succOff[:n])
	l.predOff[0], l.succOff[0] = 0, 0
	return l
}

// criticalMemo returns the cached critical path, deriving it from the depth
// cache on a miss.
func (g *Graph) criticalMemo() int {
	depth := g.depthMemo()
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
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
