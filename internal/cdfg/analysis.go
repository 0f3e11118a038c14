package cdfg

import (
	"fmt"
	"slices"
)

// NodeSet is a set of node IDs.
type NodeSet map[NodeID]bool

// NewNodeSet builds a set from the given IDs.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Sorted returns the members in ascending ID order.
func (s NodeSet) Sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Contains reports membership; a nil set contains nothing.
func (s NodeSet) Contains(id NodeID) bool { return s[id] }

// Intersect returns the intersection of s and t.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	small, big := s, t
	if len(t) < len(s) {
		small, big = t, s
	}
	out := make(NodeSet)
	for id := range small {
		if big[id] {
			out[id] = true
		}
	}
	return out
}

// TransitiveFanin returns the set of nodes from which root is reachable via
// dataflow edges. The root itself is included. Input and constant nodes are
// included; callers filter as needed.
func (g *Graph) TransitiveFanin(root NodeID) NodeSet {
	seen := make(NodeSet)
	stack := []NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, g.nodes[id].Args...)
	}
	return seen
}

// Levels returns two per-node vectors over the dataflow edges alone.
// depth is the earliest control step a node could occupy (1-based for
// unit-latency ops; zero for free nodes feeding nothing yet): the
// unconstrained ASAP level. height is the longest latency-weighted path
// from the node to any output, its own latency included; a node that
// reaches no output has its own latency. Both are memoized, computed on a
// miss, and shared with the cache and with every fork of the graph:
// treat them as read-only.
func (g *Graph) Levels() (depth, height []int) {
	return g.depthMemo(), g.heightMemo()
}

// CriticalPath returns the minimum number of control steps needed to
// execute the graph: the longest latency-weighted dataflow path. Control
// edges are deliberately excluded — this is the Table I "Critical Path"
// column, a property of the original behavior.
func (g *Graph) CriticalPath() (int, error) {
	return g.criticalMemo(), nil
}

// Stats summarizes a graph the way Table I does.
type Stats struct {
	// CriticalPath is the minimum feasible number of control steps.
	CriticalPath int
	// Count holds the number of operations per class.
	Count [NumClasses]int
}

// String formats the stats as a Table I row fragment.
func (s Stats) String() string {
	return fmt.Sprintf("cp=%d mux=%d comp=%d add=%d sub=%d mul=%d",
		s.CriticalPath, s.Count[ClassMux], s.Count[ClassComp],
		s.Count[ClassAdd], s.Count[ClassSub], s.Count[ClassMul])
}

// ComputeStats returns the Table I statistics for the graph.
func (g *Graph) ComputeStats() (Stats, error) {
	cp, err := g.CriticalPath()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{CriticalPath: cp}
	for _, n := range g.nodes {
		st.Count[n.Class()]++
	}
	return st, nil
}

// Muxes returns the IDs of all multiplexor nodes in ID order.
func (g *Graph) Muxes() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindMux {
			out = append(out, n.ID)
		}
	}
	return out
}
