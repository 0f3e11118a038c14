package cdfg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildAbsDiff constructs the |a-b| CDFG from paper Figures 1-2:
// out = mux(a>b, a-b, b-a).
func buildAbsDiff(t *testing.T) *Graph {
	t.Helper()
	g := New("absdiff")
	a := MustAdd(g.AddInput("a"))
	b := MustAdd(g.AddInput("b"))
	gt := MustAdd(g.AddOp(KindGt, "g", a, b))
	d1 := MustAdd(g.AddOp(KindSub, "d1", a, b))
	d2 := MustAdd(g.AddOp(KindSub, "d2", b, a))
	m := MustAdd(g.AddMux("m", gt, d1, d2))
	MustAdd(g.AddOutput("out", m))
	if err := g.Validate(); err != nil {
		t.Fatalf("absdiff graph invalid: %v", err)
	}
	return g
}

func TestAddNodesAndLookup(t *testing.T) {
	g := New("t")
	a, err := g.AddInput("a")
	if err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	if got := g.Lookup("a"); got != a {
		t.Errorf("Lookup(a) = %d, want %d", got, a)
	}
	if got := g.Lookup("missing"); got != InvalidNode {
		t.Errorf("Lookup(missing) = %d, want InvalidNode", got)
	}
	if g.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Node(a).Kind != KindInput {
		t.Errorf("node kind = %v, want input", g.Node(a).Kind)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	g := New("t")
	if _, err := g.AddInput("x"); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if _, err := g.AddInput("x"); err == nil {
		t.Error("duplicate name accepted, want error")
	}
}

func TestEmptyNameRejected(t *testing.T) {
	g := New("t")
	if _, err := g.AddInput(""); err == nil {
		t.Error("empty name accepted, want error")
	}
}

func TestArityEnforced(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	if _, err := g.AddOp(KindAdd, "bad", a); err == nil {
		t.Error("1-arg add accepted, want error")
	}
	if _, err := g.AddOp(KindNot, "bad2", a, a); err == nil {
		t.Error("2-arg not accepted, want error")
	}
}

func TestUndefinedArgRejected(t *testing.T) {
	g := New("t")
	if _, err := g.AddOp(KindNot, "bad", NodeID(42)); err == nil {
		t.Error("undefined arg accepted, want error")
	}
	if _, err := g.AddOp(KindNot, "bad2", NodeID(-1)); err == nil {
		t.Error("negative arg accepted, want error")
	}
}

func TestReadingFromOutputRejected(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	o := MustAdd(g.AddOutput("o", a))
	if _, err := g.AddOp(KindNot, "bad", o); err == nil {
		t.Error("reading from output accepted, want error")
	}
}

func TestShiftValidation(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	if _, err := g.AddShift(KindShr, "s", a, 3); err != nil {
		t.Errorf("valid shift rejected: %v", err)
	}
	if _, err := g.AddShift(KindAdd, "bad", a, 3); err == nil {
		t.Error("AddShift with non-shift kind accepted")
	}
	if _, err := g.AddShift(KindShl, "bad2", a, -1); err == nil {
		t.Error("negative shift amount accepted")
	}
}

func TestSuccsPreds(t *testing.T) {
	g := buildAbsDiff(t)
	a := g.Lookup("a")
	succs := g.Succs(a)
	if len(succs) != 3 { // g, d1, d2
		t.Fatalf("a has %d succs, want 3", len(succs))
	}
	m := g.Lookup("m")
	preds := g.Preds(m)
	if len(preds) != 3 {
		t.Fatalf("mux has %d preds, want 3", len(preds))
	}
	if preds[MuxSel] != g.Lookup("g") {
		t.Errorf("mux sel = %d, want comparator", preds[MuxSel])
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := buildAbsDiff(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, n := range g.Nodes() {
		for _, a := range n.Args {
			if pos[a] >= pos[n.ID] {
				t.Errorf("edge %d->%d violates topo order", a, n.ID)
			}
		}
	}
}

func TestTopoOrderIncludesControlEdges(t *testing.T) {
	g := buildAbsDiff(t)
	// control edge comparator -> d1
	if err := g.AddControlEdge(g.Lookup("g"), g.Lookup("d1")); err != nil {
		t.Fatalf("AddControlEdge: %v", err)
	}
	if !g.HasControlEdge(g.Lookup("g"), g.Lookup("d1")) || g.HasControlEdge(g.Lookup("d1"), g.Lookup("g")) {
		t.Error("HasControlEdge does not report exactly the added edge")
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if pos[g.Lookup("g")] >= pos[g.Lookup("d1")] {
		t.Error("control edge not respected in topo order")
	}
}

func TestControlEdgeCycleDetected(t *testing.T) {
	g := buildAbsDiff(t)
	// d1 precedes m via dataflow; m -> d1 control edge creates a cycle.
	if err := g.AddControlEdge(g.Lookup("m"), g.Lookup("d1")); err != nil {
		t.Fatalf("AddControlEdge: %v", err)
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestControlEdgeValidation(t *testing.T) {
	g := buildAbsDiff(t)
	if err := g.AddControlEdge(1, 1); err == nil {
		t.Error("self control edge accepted")
	}
	if err := g.AddControlEdge(0, 999); err == nil {
		t.Error("out-of-range control edge accepted")
	}
	g.ClearControlEdges()
	if len(g.ControlEdges()) != 0 {
		t.Error("ClearControlEdges did not clear")
	}
}

// wantSched recomputes the scheduling adjacency of id from scratch:
// dataflow first, then control edges in insertion order.
func wantSched(g *Graph, id NodeID) (preds, succs []NodeID) {
	preds = append(preds, g.Node(id).Args...)
	succs = append(succs, g.Succs(id)...)
	for _, e := range g.ControlEdges() {
		if e.To == id {
			preds = append(preds, e.From)
		}
		if e.From == id {
			succs = append(succs, e.To)
		}
	}
	return preds, succs
}

// checkSched compares SchedPreds, SchedSuccs and one SchedAdjacency
// against wantSched on every node.
func checkSched(t *testing.T, g *Graph, when string) {
	t.Helper()
	adj := g.SchedAdjacency()
	for _, n := range g.Nodes() {
		wp, ws := wantSched(g, n.ID)
		for _, c := range []struct {
			what      string
			got, want []NodeID
		}{
			{"SchedPreds", g.SchedPreds(n.ID), wp},
			{"SchedSuccs", g.SchedSuccs(n.ID), ws},
			{"Adjacency.Preds", adj.Preds(n.ID), wp},
			{"Adjacency.Succs", adj.Succs(n.ID), ws},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("%s: %s(%s) = %v, want %v", when, c.what, n.Name, c.got, c.want)
			}
		}
	}
}

func TestSchedPredsSuccs(t *testing.T) {
	g := buildAbsDiff(t)
	a, b, gt := g.Lookup("a"), g.Lookup("b"), g.Lookup("g")
	d1, d2, m := g.Lookup("d1"), g.Lookup("d2"), g.Lookup("m")
	checkSched(t, g, "no control edge")

	// Control edges follow the dataflow, in insertion order.
	for _, e := range []ControlEdge{{gt, d1}, {gt, d2}, {d2, d1}} {
		if err := g.AddControlEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
		checkSched(t, g, fmt.Sprintf("after edge %d->%d", e.From, e.To))
	}
	if got, want := g.SchedPreds(d1), []NodeID{a, b, gt, d2}; !slices.Equal(got, want) {
		t.Errorf("SchedPreds(d1) = %v, want %v", got, want)
	}
	if got, want := g.SchedSuccs(gt), []NodeID{m, d1, d2}; !slices.Equal(got, want) {
		t.Errorf("SchedSuccs(g) = %v, want %v", got, want)
	}

	// The revert the power management pass performs: clear, re-add a
	// prefix.
	edges := append([]ControlEdge(nil), g.ControlEdges()[:1]...)
	g.ClearControlEdges()
	checkSched(t, g, "after clear")
	for _, e := range edges {
		if err := g.AddControlEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	checkSched(t, g, "after revert")

	// A fork shares the warm adjacency, but an edge added on either
	// side never shows on the other.
	cl := g.Fork()
	if err := cl.AddControlEdge(d2, d1); err != nil {
		t.Fatal(err)
	}
	checkSched(t, g, "original after fork edge")
	checkSched(t, cl, "fork after its edge")
	if slices.Contains(g.SchedPreds(d1), d2) {
		t.Error("fork's control edge d2->d1 leaked into the original")
	}
	cl2 := g.Fork()
	if err := g.AddControlEdge(gt, d2); err != nil {
		t.Fatal(err)
	}
	checkSched(t, cl2, "fork after original edge")
	if slices.Contains(cl2.SchedPreds(d2), gt) {
		t.Error("original's control edge g->d2 leaked into an earlier fork")
	}

	// Appending to an answer never writes into Args, the dataflow
	// successors or a later answer.
	for _, h := range []*Graph{buildAbsDiff(t), g} {
		p := h.SchedPreds(h.Lookup("d1"))
		_ = append(p, InvalidNode)
		s := h.SchedSuccs(h.Lookup("a"))
		_ = append(s, InvalidNode)
		checkSched(t, h, fmt.Sprintf("after appends (%d control edges)", len(h.ControlEdges())))
		if args := h.Node(h.Lookup("d1")).Args; !slices.Equal(args, []NodeID{a, b}) {
			t.Errorf("Args(d1) = %v after an append to SchedPreds", args)
		}
	}

	// Concurrent readers of one shared graph race to build the memo
	// entry and to read it (and fork it); under -race this checks the
	// sharing contract.
	shared := buildAbsDiff(t)
	if err := shared.AddControlEdge(gt, d1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := shared.Fork()
			for _, n := range shared.Nodes() {
				wp, ws := wantSched(shared, n.ID)
				if !slices.Equal(shared.SchedPreds(n.ID), wp) || !slices.Equal(shared.SchedSuccs(n.ID), ws) ||
					!slices.Equal(cl.SchedPreds(n.ID), wp) {
					t.Errorf("concurrent reader saw a wrong adjacency at %s", n.Name)
				}
			}
			if _, err := shared.TopoOrder(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestTransitiveFanin(t *testing.T) {
	g := buildAbsDiff(t)
	cone := g.TransitiveFanin(g.Lookup("d1"))
	for _, name := range []string{"d1", "a", "b"} {
		if !cone.Contains(g.Lookup(name)) {
			t.Errorf("fanin of d1 missing %s", name)
		}
	}
	if cone.Contains(g.Lookup("d2")) || cone.Contains(g.Lookup("g")) {
		t.Error("fanin of d1 contains unrelated nodes")
	}
}

func TestDepthAndCriticalPath(t *testing.T) {
	g := buildAbsDiff(t)
	depth, _ := g.Levels()
	if d := depth[g.Lookup("a")]; d != 0 {
		t.Errorf("input depth = %d, want 0", d)
	}
	if d := depth[g.Lookup("d1")]; d != 1 {
		t.Errorf("sub depth = %d, want 1", d)
	}
	if d := depth[g.Lookup("m")]; d != 2 {
		t.Errorf("mux depth = %d, want 2", d)
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 2 {
		t.Errorf("critical path = %d, want 2 (paper Fig. 1)", cp)
	}
}

func TestShiftsAreFree(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	s := MustAdd(MustAddErr(g.AddShift(KindShr, "s", a, 2)))
	b := MustAdd(g.AddOp(KindAdd, "sum", s, a))
	MustAdd(g.AddOutput("o", b))
	depth, _ := g.Levels()
	if depth[s] != 0 {
		t.Errorf("shift depth = %d, want 0 (free wiring)", depth[s])
	}
	cp, _ := g.CriticalPath()
	if cp != 1 {
		t.Errorf("critical path = %d, want 1", cp)
	}
}

// MustAddErr adapts the two-value return for nesting in tests.
func MustAddErr(id NodeID, err error) (NodeID, error) { return id, err }

func TestHeightToOutput(t *testing.T) {
	g := buildAbsDiff(t)
	_, h := g.Levels()
	if h[g.Lookup("m")] != 1 {
		t.Errorf("mux height = %d, want 1", h[g.Lookup("m")])
	}
	if h[g.Lookup("d1")] != 2 {
		t.Errorf("sub height = %d, want 2", h[g.Lookup("d1")])
	}
	if h[g.Lookup("a")] != 2 {
		t.Errorf("input height = %d, want 2", h[g.Lookup("a")])
	}
}

func TestComputeStats(t *testing.T) {
	g := buildAbsDiff(t)
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CriticalPath != 2 {
		t.Errorf("cp = %d, want 2", st.CriticalPath)
	}
	if st.Count[ClassMux] != 1 || st.Count[ClassComp] != 1 || st.Count[ClassSub] != 2 {
		t.Errorf("stats = %v", st)
	}
	if !strings.Contains(st.String(), "cp=2") {
		t.Errorf("String() = %q", st.String())
	}
}

func TestMuxes(t *testing.T) {
	g := buildAbsDiff(t)
	if got := len(g.Muxes()); got != 1 {
		t.Errorf("Muxes len = %d, want 1", got)
	}
}

func TestForkEdgesNeverReachTheInput(t *testing.T) {
	g := buildAbsDiff(t)
	MustAddControlEdge(t, g, g.Lookup("g"), g.Lookup("d1"))
	topo := slices.Clone(mustTopo(t, g))
	depth, height := g.Levels()

	f := g.Fork()
	if f.NumNodes() != g.NumNodes() || f.Node(2) != g.Node(2) || f.Lookup("d2") != g.Lookup("d2") {
		t.Fatal("fork does not share the input's nodes")
	}
	if fd, fh := f.Levels(); &fd[0] != &depth[0] || &fh[0] != &height[0] {
		t.Error("fork does not share the input's depth and height")
	}
	if !slices.Equal(f.ControlEdges(), g.ControlEdges()) {
		t.Fatalf("fork edges %v, input's %v", f.ControlEdges(), g.ControlEdges())
	}
	MustAddControlEdge(t, f, f.Lookup("g"), f.Lookup("d2"))
	if err := f.AddControlEdges([]ControlEdge{{From: f.Lookup("d1"), To: f.Lookup("d2")}}); err != nil {
		t.Fatal(err)
	}
	if got := f.SchedSuccs(f.Lookup("d1")); !slices.Contains(got, f.Lookup("d2")) {
		t.Errorf("fork's scheduling successors of d1 %v miss its control edge", got)
	}
	if len(g.ControlEdges()) != 1 || len(g.SchedSuccs(g.Lookup("d1"))) != 1 {
		t.Fatalf("input gained the fork's edges: %v", g.ControlEdges())
	}
	if !slices.Equal(mustTopo(t, g), topo) {
		t.Error("input's topological order changed")
	}
	f.ClearControlEdges()
	if len(g.ControlEdges()) != 1 || len(f.ControlEdges()) != 0 {
		t.Fatalf("clearing the fork: input edges %v, fork edges %v", g.ControlEdges(), f.ControlEdges())
	}
	// A fork of a graph without control edges owns a fresh list too.
	h := New("h")
	a := MustAdd(h.AddInput("a"))
	b := MustAdd(h.AddOp(KindAdd, "b", a, a))
	c := MustAdd(h.AddOp(KindAdd, "c", a, a))
	MustAdd(h.AddOutput("o", MustAdd(h.AddOp(KindAdd, "d", b, c))))
	hf := h.Fork()
	MustAddControlEdge(t, hf, b, c)
	if len(h.ControlEdges()) != 0 || len(h.SchedPreds(c)) != 2 {
		t.Fatalf("input gained the fork's edge: %v", h.ControlEdges())
	}
	if err := hf.AddControlEdges([]ControlEdge{{From: c, To: c}}); err == nil || len(hf.ControlEdges()) != 1 {
		t.Fatalf("AddControlEdges took a self edge: err %v, edges %v", err, hf.ControlEdges())
	}
}

// TestForkGainsNoNode: every way of adding a node fails on a fork, and
// leaves both the fork and its input as they were.
func TestForkGainsNoNode(t *testing.T) {
	g := buildAbsDiff(t)
	f := g.Fork()
	a, m := g.Lookup("a"), g.Lookup("m")
	adds := map[string]func() (NodeID, error){
		"input":  func() (NodeID, error) { return f.AddInput("x") },
		"const":  func() (NodeID, error) { return f.AddConst("k", 1) },
		"op":     func() (NodeID, error) { return f.AddOp(KindAdd, "s", a, a) },
		"mux":    func() (NodeID, error) { return f.AddMux("n", g.Lookup("g"), a, a) },
		"shift":  func() (NodeID, error) { return f.AddShift(KindShl, "sh", a, 1) },
		"output": func() (NodeID, error) { return f.AddOutput("o2", m) },
	}
	for kind, add := range adds {
		if id, err := add(); err == nil || id != InvalidNode {
			t.Errorf("adding a %s node to a fork gave %d, %v; want an error", kind, id, err)
		}
	}
	if f.NumNodes() != g.NumNodes() || g.NumNodes() != 7 || len(g.Inputs()) != 2 || g.Lookup("x") != InvalidNode {
		t.Fatalf("a refused add changed the graphs: fork %d nodes, input %d", f.NumNodes(), g.NumNodes())
	}
}

// TestConcurrentForksOfOneGraph: goroutines fork one graph at once and
// schedule their own edges; the race detector sees Fork only read it.
func TestConcurrentForksOfOneGraph(t *testing.T) {
	g := buildAbsDiff(t)
	g.PrewarmAnalyses()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := g.Fork()
				if err := f.AddControlEdge(f.Lookup("g"), f.Lookup("d1")); err != nil {
					t.Error(err)
					return
				}
				if _, err := f.TopoOrder(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(g.ControlEdges()) != 0 {
		t.Fatalf("input gained edges: %v", g.ControlEdges())
	}
}

func mustTopo(t *testing.T, g *Graph) []NodeID {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func MustAddControlEdge(t *testing.T, g *Graph, from, to NodeID) {
	t.Helper()
	if err := g.AddControlEdge(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildAbsDiff(t)
	MustAddControlEdge(t, g, g.Lookup("g"), g.Lookup("d1"))
	dot := g.DOT()
	for _, want := range []string{"digraph", "invtrapezium", "style=dashed", "sel"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if dot != g.DOT() {
		t.Error("DOT output is not deterministic")
	}
}

func TestKindStringAndClass(t *testing.T) {
	cases := []struct {
		k    Kind
		str  string
		cls  Class
		arit int
	}{
		{KindAdd, "+", ClassAdd, 2},
		{KindSub, "-", ClassSub, 2},
		{KindMul, "*", ClassMul, 2},
		{KindGt, ">", ClassComp, 2},
		{KindLe, "<=", ClassComp, 2},
		{KindMux, "mux", ClassMux, 3},
		{KindShr, ">>", ClassWire, 1},
		{KindInput, "input", ClassIO, 0},
		{KindOutput, "output", ClassIO, 1},
		{KindNot, "!", ClassLogic, 1},
		{KindAnd, "&", ClassLogic, 2},
	}
	for _, c := range cases {
		if c.k.String() != c.str {
			t.Errorf("%v String = %q, want %q", c.k, c.k.String(), c.str)
		}
		if ClassOf(c.k) != c.cls {
			t.Errorf("%v class = %v, want %v", c.k, ClassOf(c.k), c.cls)
		}
		if c.k.Arity() != c.arit {
			t.Errorf("%v arity = %d, want %d", c.k, c.k.Arity(), c.arit)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still produce a string")
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still produce a string")
	}
}

func TestComparisonAndBooleanPredicates(t *testing.T) {
	for _, k := range []Kind{KindLt, KindGt, KindLe, KindGe, KindEq, KindNe} {
		if !k.IsComparison() || !k.IsBoolean() {
			t.Errorf("%v should be comparison and boolean", k)
		}
	}
	for _, k := range []Kind{KindAnd, KindOr, KindNot} {
		if k.IsComparison() {
			t.Errorf("%v should not be comparison", k)
		}
		if !k.IsBoolean() {
			t.Errorf("%v should be boolean", k)
		}
	}
	if KindAdd.IsBoolean() {
		t.Error("+ should not be boolean")
	}
}

func TestLatency(t *testing.T) {
	if Latency(KindAdd) != 1 || Latency(KindMux) != 1 {
		t.Error("ops should have latency 1")
	}
	if Latency(KindShl) != 0 || Latency(KindInput) != 0 || Latency(KindConst) != 0 || Latency(KindOutput) != 0 {
		t.Error("wiring and IO should have latency 0")
	}
}

func TestNodeSetOps(t *testing.T) {
	s := NewNodeSet(3, 1, 2)
	if !s.Contains(1) || s.Contains(5) {
		t.Error("Contains wrong")
	}
	sorted := s.Sorted()
	if len(sorted) != 3 || sorted[0] != 1 || sorted[2] != 3 {
		t.Errorf("Sorted = %v", sorted)
	}
	inter := s.Intersect(NewNodeSet(2, 3, 9))
	if len(inter) != 2 || !inter.Contains(2) || !inter.Contains(3) {
		t.Errorf("Intersect = %v", inter)
	}
	var nilSet NodeSet
	if nilSet.Contains(0) {
		t.Error("nil set should contain nothing")
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New("rand")
	a := MustAdd(g.AddInput("in0"))
	b := MustAdd(g.AddInput("in1"))
	ids := []NodeID{a, b}
	kinds := []Kind{KindAdd, KindSub, KindMul, KindGt, KindLt, KindEq}
	for i := 0; i < n; i++ {
		x := ids[r.Intn(len(ids))]
		y := ids[r.Intn(len(ids))]
		k := kinds[r.Intn(len(kinds))]
		id := MustAdd(g.AddOp(k, nodeName("n", i), x, y))
		ids = append(ids, id)
	}
	MustAdd(g.AddOutput("out", ids[len(ids)-1]))
	return g
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('A'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+(i/260)%10))
}

func TestPropertyTopoOrderValid(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%40)+1)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != g.NumNodes() {
			return false
		}
		pos := make(map[NodeID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, nd := range g.Nodes() {
			for _, arg := range nd.Args {
				if pos[arg] >= pos[nd.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDepthMonotonic(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%40)+1)
		depth, _ := g.Levels()
		for _, nd := range g.Nodes() {
			for _, arg := range nd.Args {
				if depth[arg] >= depth[nd.ID]+1-nd.Latency() && nd.Latency() == 1 && depth[arg] > depth[nd.ID]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFaninContainsArgsTransitively(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%40)+1)
		for _, nd := range g.Nodes() {
			cone := g.TransitiveFanin(nd.ID)
			if !cone.Contains(nd.ID) {
				return false
			}
			for id := range cone {
				for _, arg := range g.Node(id).Args {
					if !cone.Contains(arg) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadMuxSelect(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	b := MustAdd(g.AddInput("b"))
	sum := MustAdd(g.AddOp(KindAdd, "sum", a, b))
	MustAdd(g.AddMux("m", sum, a, b)) // select driven by an adder: invalid
	if err := g.Validate(); err == nil {
		t.Error("mux with arithmetic select accepted")
	}
}

func TestValidateAcceptsInputAndMuxSelects(t *testing.T) {
	g := New("t")
	a := MustAdd(g.AddInput("a"))
	b := MustAdd(g.AddInput("b"))
	sel := MustAdd(g.AddInput("sel"))
	m1 := MustAdd(g.AddMux("m1", sel, a, b))
	// A mux output can itself be a select (condition routing).
	MustAdd(g.AddMux("m2", m1, b, a))
	MustAdd(g.AddOutput("o", g.Lookup("m2")))
	if err := g.Validate(); err != nil {
		t.Errorf("valid selects rejected: %v", err)
	}
}
