package cdfg

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/scratch"
)

// NodeID identifies a node within one Graph. IDs are dense indices starting
// at zero; they are stable across Fork.
type NodeID int

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// ErrCycle reports a scheduling graph (data plus control edges) with a
// cycle.
var ErrCycle = errors.New("cdfg: graph contains a cycle")

// Kind enumerates the primitive operation types.
type Kind int

const (
	// KindInput is a primary input port. It occupies no control step.
	KindInput Kind = iota
	// KindConst is a compile-time constant. It occupies no control step.
	KindConst
	// KindOutput is a primary output port, fed by exactly one node.
	KindOutput
	// KindAdd is a two-input addition.
	KindAdd
	// KindSub is a two-input subtraction (Args[0] - Args[1]).
	KindSub
	// KindMul is a two-input multiplication.
	KindMul
	// KindLt..KindNe are two-input comparisons producing a boolean.
	KindLt
	KindGt
	KindLe
	KindGe
	KindEq
	KindNe
	// KindMux is a 2:1 multiplexor: Args[MuxSel] selects Args[MuxTrue]
	// when nonzero, else Args[MuxFalse].
	KindMux
	// KindShl and KindShr are constant-amount shifts. Constant shifts are
	// pure wiring in hardware: they occupy no control step and dissipate
	// no power.
	KindShl
	KindShr
	// KindAnd, KindOr, KindNot are boolean connectives for composite
	// conditions.
	KindAnd
	KindOr
	KindNot
)

// Argument positions for KindMux nodes.
const (
	// MuxSel is the control (select) input position.
	MuxSel = 0
	// MuxTrue is the data input chosen when the select is nonzero
	// (the paper's "1 input").
	MuxTrue = 1
	// MuxFalse is the data input chosen when the select is zero
	// (the paper's "0 input").
	MuxFalse = 2
)

var kindNames = map[Kind]string{
	KindInput:  "input",
	KindConst:  "const",
	KindOutput: "output",
	KindAdd:    "+",
	KindSub:    "-",
	KindMul:    "*",
	KindLt:     "<",
	KindGt:     ">",
	KindLe:     "<=",
	KindGe:     ">=",
	KindEq:     "==",
	KindNe:     "!=",
	KindMux:    "mux",
	KindShl:    "<<",
	KindShr:    ">>",
	KindAnd:    "&",
	KindOr:     "|",
	KindNot:    "!",
}

// String returns the conventional operator spelling for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsComparison reports whether the kind is one of the six comparators.
func (k Kind) IsComparison() bool {
	switch k {
	case KindLt, KindGt, KindLe, KindGe, KindEq, KindNe:
		return true
	}
	return false
}

// IsBoolean reports whether the kind produces a boolean value.
func (k Kind) IsBoolean() bool {
	return k.IsComparison() || k == KindAnd || k == KindOr || k == KindNot
}

// Arity returns the number of arguments nodes of this kind take.
func (k Kind) Arity() int {
	switch k {
	case KindInput, KindConst:
		return 0
	case KindOutput, KindNot, KindShl, KindShr:
		return 1
	case KindMux:
		return 3
	default:
		return 2
	}
}

// Class groups kinds into the resource classes the paper reports on
// (Table I columns), plus the classes that consume no datapath resources.
type Class int

const (
	// ClassIO covers inputs, constants and outputs.
	ClassIO Class = iota
	// ClassMux covers multiplexors (weight 1 in the paper's power model).
	ClassMux
	// ClassComp covers all comparators (weight 4).
	ClassComp
	// ClassAdd covers additions (weight 3).
	ClassAdd
	// ClassSub covers subtractions (weight 3).
	ClassSub
	// ClassMul covers multiplications (weight 20).
	ClassMul
	// ClassWire covers constant shifts: free wiring.
	ClassWire
	// ClassLogic covers boolean connectives on condition bits.
	ClassLogic
)

// NumClasses is the count of distinct Class values.
const NumClasses = int(ClassLogic) + 1

var classNames = [NumClasses]string{"io", "mux", "comp", "add", "sub", "mul", "wire", "logic"}

// String returns the lower-case class name.
func (c Class) String() string {
	if c >= 0 && int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassOf maps a kind to its resource class.
func ClassOf(k Kind) Class {
	switch k {
	case KindInput, KindConst, KindOutput:
		return ClassIO
	case KindMux:
		return ClassMux
	case KindAdd:
		return ClassAdd
	case KindSub:
		return ClassSub
	case KindMul:
		return ClassMul
	case KindShl, KindShr:
		return ClassWire
	case KindAnd, KindOr, KindNot:
		return ClassLogic
	default:
		if k.IsComparison() {
			return ClassComp
		}
		return ClassIO
	}
}

// Latency returns the number of control steps an operation of kind k
// occupies. Interface nodes and constant shifts are free.
func Latency(k Kind) int {
	switch ClassOf(k) {
	case ClassIO, ClassWire:
		return 0
	default:
		return 1
	}
}

// Node is a single CDFG operation.
type Node struct {
	// ID is the node's index in its graph.
	ID NodeID
	// Kind is the operation type.
	Kind Kind
	// Name is a unique, human-readable identifier (the source variable
	// name where one exists).
	Name string
	// Args lists the data inputs in positional order. For KindMux the
	// order is select, true-input, false-input.
	Args []NodeID
	// Value is the constant value for KindConst nodes.
	Value int64
	// Shift is the constant shift amount for KindShl/KindShr nodes.
	Shift int
}

// Class returns the node's resource class.
func (n *Node) Class() Class { return ClassOf(n.Kind) }

// Latency returns the node's control-step latency.
func (n *Node) Latency() int { return Latency(n.Kind) }

// IsOp reports whether the node occupies a datapath execution unit
// (anything but IO and wiring).
func (n *Node) IsOp() bool {
	c := n.Class()
	return c != ClassIO && c != ClassWire
}

// ControlEdge is an extra precedence constraint From -> To inserted by the
// power management pass (paper Fig. 3 step 10).
type ControlEdge struct {
	From, To NodeID
}

// Graph is a CDFG. The zero value is not usable; call New.
type Graph struct {
	// Name labels the design (the source function name).
	Name string

	nodes  []*Node
	byName map[string]NodeID

	// free and freeArgs are the unused rest of the blocks that new nodes
	// and their argument lists are taken from (see Grow).
	free     []Node
	freeArgs []NodeID

	controlEdges []ControlEdge

	inputs  []NodeID
	consts  []NodeID
	outputs []NodeID

	// fork is set on a graph made by Fork: it shares its node list with
	// the graph it was forked from, so it can gain no node.
	fork bool

	// memo caches the dataflow successor lists and the analyses (see
	// memo.go). Graphs are always handled by pointer; the zero memo is an
	// empty cache.
	memo analysisMemo
}

// New returns an empty graph with the given design name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]NodeID)}
}

// Grow reserves room for n more nodes holding args arguments in all: the
// adds it covers allocate nothing, their names aside. The front end calls
// it with bounds taken from the parse. Like slices.Grow it is a hint:
// adding past it still works, from blocks allocated as needed.
func (g *Graph) Grow(n, args int) {
	g.nodes = slices.Grow(g.nodes, n)
	if len(g.free) < n {
		g.free = make([]Node, n)
	}
	if len(g.freeArgs) < args {
		g.freeArgs = make([]NodeID, args)
	}
	if len(g.byName) == 0 {
		g.byName = make(map[string]NodeID, n)
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID. It panics if id is out of range.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Nodes returns the nodes in ID order. The slice is shared; treat it as
// read-only.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Inputs returns the IDs of the primary input nodes in creation order.
func (g *Graph) Inputs() []NodeID { return g.inputs }

// Outputs returns the IDs of the output nodes in creation order.
func (g *Graph) Outputs() []NodeID { return g.outputs }

// Consts returns the IDs of the constant nodes in creation order.
func (g *Graph) Consts() []NodeID { return g.consts }

// Lookup finds a node by name, returning InvalidNode if absent.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// add appends a copy of n with a copy of args as its argument list, taking
// both from the graph's blocks; args stays the caller's. A graph under
// construction never touches its memo: the memo describes a node count,
// and the first read after the node list grew drops it (see
// analysisMemo).
func (g *Graph) add(n Node, args ...NodeID) (NodeID, error) {
	if g.fork {
		return InvalidNode, fmt.Errorf("cdfg: cannot add node %q to a fork of %q", n.Name, g.Name)
	}
	if n.Name == "" {
		return InvalidNode, errors.New("cdfg: node must have a name")
	}
	if _, dup := g.byName[n.Name]; dup {
		return InvalidNode, fmt.Errorf("cdfg: duplicate node name %q", n.Name)
	}
	if want := n.Kind.Arity(); len(args) != want {
		return InvalidNode, fmt.Errorf("cdfg: %s node %q wants %d args, got %d",
			n.Kind, n.Name, want, len(args))
	}
	for _, a := range args {
		if a < 0 || int(a) >= len(g.nodes) {
			return InvalidNode, fmt.Errorf("cdfg: node %q references undefined node %d", n.Name, a)
		}
		if g.nodes[a].Kind == KindOutput {
			return InvalidNode, fmt.Errorf("cdfg: node %q reads from output node %q", n.Name, g.nodes[a].Name)
		}
	}
	n.ID = NodeID(len(g.nodes))
	if k := len(args); k > 0 {
		if len(g.freeArgs) < k {
			g.freeArgs = make([]NodeID, max(k, 16, 2*len(g.nodes)))
		}
		n.Args = g.freeArgs[:k:k]
		g.freeArgs = g.freeArgs[k:]
		copy(n.Args, args)
	}
	if len(g.free) == 0 {
		g.free = make([]Node, max(8, len(g.nodes)))
	}
	p := &g.free[0]
	g.free = g.free[1:]
	*p = n
	g.nodes = append(g.nodes, p)
	g.byName[n.Name] = n.ID
	switch n.Kind {
	case KindInput:
		g.inputs = append(g.inputs, n.ID)
	case KindConst:
		g.consts = append(g.consts, n.ID)
	case KindOutput:
		g.outputs = append(g.outputs, n.ID)
	}
	return n.ID, nil
}

// AddInput appends a primary input node.
func (g *Graph) AddInput(name string) (NodeID, error) {
	return g.add(Node{Kind: KindInput, Name: name})
}

// AddConst appends a constant node with the given value.
func (g *Graph) AddConst(name string, value int64) (NodeID, error) {
	return g.add(Node{Kind: KindConst, Name: name, Value: value})
}

// AddOutput appends an output node fed by src.
func (g *Graph) AddOutput(name string, src NodeID) (NodeID, error) {
	return g.add(Node{Kind: KindOutput, Name: name}, src)
}

// AddOp appends a generic operation node. For multiplexors prefer AddMux,
// for shifts AddShift. The node keeps a copy of args.
func (g *Graph) AddOp(kind Kind, name string, args ...NodeID) (NodeID, error) {
	return g.add(Node{Kind: kind, Name: name}, args...)
}

// AddMux appends a 2:1 multiplexor selecting t when sel is nonzero and f
// otherwise.
func (g *Graph) AddMux(name string, sel, t, f NodeID) (NodeID, error) {
	return g.add(Node{Kind: KindMux, Name: name}, sel, t, f)
}

// AddShift appends a constant shift (KindShl or KindShr) of src by the
// given amount.
func (g *Graph) AddShift(kind Kind, name string, src NodeID, by int) (NodeID, error) {
	if kind != KindShl && kind != KindShr {
		return InvalidNode, fmt.Errorf("cdfg: AddShift kind must be a shift, got %s", kind)
	}
	if by < 0 {
		return InvalidNode, fmt.Errorf("cdfg: negative shift amount %d", by)
	}
	return g.add(Node{Kind: kind, Name: name, Shift: by}, src)
}

// MustAdd panics when err is non-nil; it is a convenience for building the
// benchmark graphs where names are statically known to be unique.
func MustAdd(id NodeID, err error) NodeID {
	if err != nil {
		panic(err)
	}
	return id
}

// Succs returns the dataflow successors of id (nodes that consume its
// value), in ID order. The slice is shared; treat it as read-only.
func (g *Graph) Succs(id NodeID) []NodeID { return g.dataSuccs().row(id) }

// Preds returns the dataflow predecessors of id (its argument list).
func (g *Graph) Preds(id NodeID) []NodeID { return g.nodes[id].Args }

// AddControlEdge records an extra precedence constraint from -> to. It does
// not affect dataflow semantics, only scheduling. Self edges are rejected.
func (g *Graph) AddControlEdge(from, to NodeID) error {
	if err := g.checkControlEdge(ControlEdge{From: from, To: to}); err != nil {
		return err
	}
	g.invalidateSchedDeps()
	g.controlEdges = append(g.controlEdges, ControlEdge{From: from, To: to})
	return nil
}

// checkControlEdge rejects a self edge and an edge to or from no node.
func (g *Graph) checkControlEdge(e ControlEdge) error {
	if e.From == e.To {
		return fmt.Errorf("cdfg: control self-edge on node %d", e.From)
	}
	if e.From < 0 || int(e.From) >= len(g.nodes) || e.To < 0 || int(e.To) >= len(g.nodes) {
		return fmt.Errorf("cdfg: control edge references undefined node (%d -> %d)", e.From, e.To)
	}
	return nil
}

// AddControlEdges records the constraints in order, as AddControlEdge
// would one at a time, growing the edge list once. On an invalid edge it
// returns AddControlEdge's error and records none of them.
func (g *Graph) AddControlEdges(edges []ControlEdge) error {
	for _, e := range edges {
		if err := g.checkControlEdge(e); err != nil {
			return err
		}
	}
	g.invalidateSchedDeps()
	g.controlEdges = append(slices.Grow(g.controlEdges, len(edges)), edges...)
	return nil
}

// ControlEdges returns the inserted control edges. The slice is shared;
// treat it as read-only.
func (g *Graph) ControlEdges() []ControlEdge { return g.controlEdges }

// HasControlEdge reports whether the control edge from -> to is present.
func (g *Graph) HasControlEdge(from, to NodeID) bool {
	for _, e := range g.controlEdges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// ClearControlEdges removes all control edges (used when re-running the
// power management pass with a different configuration).
func (g *Graph) ClearControlEdges() {
	if g.controlEdges == nil {
		return
	}
	g.invalidateSchedDeps()
	g.controlEdges = nil
}

// Adjacency answers scheduling-adjacency queries (data + control edges)
// for one state of a graph. It stays valid until the graph's node list or
// control edges change. Fetch it once per walk with SchedAdjacency: every
// query is then a slice index, with no lock and no allocation.
type Adjacency struct {
	g *Graph
	// succs is the graph's dataflow successor lists.
	succs *csr
	// lists is the memoized adjacency of a graph with control edges; nil
	// when the dataflow is the whole story.
	lists *schedLists
}

// Preds returns the scheduling predecessors of id: dataflow arguments, then
// control-edge sources in insertion order. The slice is shared; treat it
// as read-only (its capacity equals its length, so an append copies).
func (a Adjacency) Preds(id NodeID) []NodeID {
	if l := a.lists; l != nil {
		return l.preds.row(id)
	}
	args := a.g.nodes[id].Args
	return args[:len(args):len(args)]
}

// Succs returns the scheduling successors of id: dataflow successors, then
// control-edge targets in insertion order. The slice is shared; treat it
// as read-only (its capacity equals its length, so an append copies).
func (a Adjacency) Succs(id NodeID) []NodeID {
	if l := a.lists; l != nil {
		return l.succs.row(id)
	}
	return a.succs.row(id)
}

// SchedAdjacency returns the scheduling adjacency of the graph. A graph
// without control edges answers from its dataflow lists; a graph with
// control edges builds its per-node lists once and memoizes them until
// the node list or the control edges change (forks share them).
func (g *Graph) SchedAdjacency() Adjacency {
	if len(g.controlEdges) == 0 {
		return Adjacency{g: g, succs: g.dataSuccs()}
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	return g.schedAdjacencyLocked()
}

// SchedSuccs returns the scheduling successors of id: dataflow successors
// plus control-edge targets. The slice is shared; treat it as read-only.
// A walk over many nodes should fetch SchedAdjacency once instead.
func (g *Graph) SchedSuccs(id NodeID) []NodeID { return g.SchedAdjacency().Succs(id) }

// SchedPreds returns the scheduling predecessors of id: dataflow arguments
// plus control-edge sources. The slice is shared; treat it as read-only.
// A walk over many nodes should fetch SchedAdjacency once instead.
func (g *Graph) SchedPreds(id NodeID) []NodeID { return g.SchedAdjacency().Preds(id) }

// Validate checks structural sanity: correct arities (enforced at build
// time, re-checked here), every non-IO node reachable from an input or
// constant, acyclicity including control edges, outputs with exactly one
// argument, and boolean-valued mux selects.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if want := n.Kind.Arity(); len(n.Args) != want {
			return fmt.Errorf("cdfg: %s node %q has %d args, want %d", n.Kind, n.Name, len(n.Args), want)
		}
		if n.Kind == KindMux {
			sel := g.nodes[n.Args[MuxSel]]
			if !sel.Kind.IsBoolean() && sel.Kind != KindInput && sel.Kind != KindConst && sel.Kind != KindMux {
				return fmt.Errorf("cdfg: mux %q select %q is %s, want boolean-valued", n.Name, sel.Name, sel.Kind)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order over the scheduling graph (data +
// control edges). An error is returned if a cycle exists. The order is
// memoized until the node list or the control edges change, and the
// returned slice is shared with the cache: treat it as read-only.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	return g.topoMemo()
}

// nodeMinHeap is a binary min-heap of node IDs: TopoOrder's deterministic
// smallest-ready-first order without re-sorting a queue on every pop.
type nodeMinHeap []NodeID

func (h *nodeMinHeap) push(id NodeID) {
	q := append(*h, id)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *nodeMinHeap) pop() NodeID {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(q) && q[l] < q[s] {
			s = l
		}
		if r < len(q) && q[r] < q[s] {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	*h = q
	return top
}

// topoScratch is computeTopoOrder's working memory: the in-degrees and
// the ready heap. It waits in topoWalks between calls.
type topoScratch struct {
	indeg []int
	heap  nodeMinHeap
}

// topoWalks holds the idle topoScratch values.
var topoWalks scratch.List[topoScratch]

// computeTopoOrder does the work behind TopoOrder on a memo miss. Only the
// order, which the memo keeps, is allocated. Without control edges every
// edge runs from a smaller ID to a larger one (add rejects forward
// references), so the smallest-ready-first order is the ID order and no
// walk is needed.
func (g *Graph) computeTopoOrder(adj Adjacency) ([]NodeID, error) {
	n := len(g.nodes)
	if adj.lists == nil {
		order := make([]NodeID, n)
		for i := range order {
			order[i] = NodeID(i)
		}
		return order, nil
	}
	ts := topoWalks.Get()
	defer topoWalks.Put(ts)
	ts.indeg = scratch.Grow(ts.indeg, n)
	indeg := ts.indeg
	for i := range indeg {
		indeg[i] = len(adj.Preds(NodeID(i)))
	}
	// Deterministic order: process ready nodes in ID order.
	ts.heap = scratch.Grow(ts.heap, n)[:0]
	heap := &ts.heap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(*heap) > 0 {
		id := heap.pop()
		order = append(order, id)
		for _, s := range adj.Succs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				heap.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Fork returns a graph with g's nodes and dataflow edges and its own copy
// of g's control edges: the work graph of a pass that adds or clears
// control edges and nothing else. The fork shares g's nodes, name index,
// successor lists and pure-dataflow analyses, so it costs one small
// allocation plus its edge list, and it owns its control edges and the
// analyses that depend on them. Control edges added to or cleared from
// the fork never reach g, and Fork only reads g, so any number of
// goroutines may fork one graph at once.
//
// A fork can gain no node: its add methods return an error. g must gain
// none while a fork of it is in use either, which holds for every graph
// the compiler has finished building.
func (g *Graph) Fork() *Graph {
	n := len(g.nodes)
	ng := &Graph{
		Name:    g.Name,
		nodes:   g.nodes[:n:n],
		byName:  g.byName,
		inputs:  g.inputs[:len(g.inputs):len(g.inputs)],
		consts:  g.consts[:len(g.consts):len(g.consts)],
		outputs: g.outputs[:len(g.outputs):len(g.outputs)],
		fork:    true,
	}
	if len(g.controlEdges) > 0 {
		ng.controlEdges = append([]ControlEdge(nil), g.controlEdges...)
	}
	g.shareAnalyses(ng)
	return ng
}
