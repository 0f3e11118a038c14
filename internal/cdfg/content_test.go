package cdfg

import "testing"

// buildAbs constructs |a-b| by hand: two inputs, a constant bias, a
// comparison, two subtractions and a mux.
func buildAbs(t *testing.T) *Graph {
	t.Helper()
	g := New("abs")
	must := func(id NodeID, err error) NodeID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := must(g.AddInput("a"))
	b := must(g.AddInput("b"))
	must(g.AddConst("one", 1))
	gt := must(g.AddOp(KindGt, "g", a, b))
	d1 := must(g.AddOp(KindSub, "d1", a, b))
	d2 := must(g.AddOp(KindSub, "d2", b, a))
	m := must(g.AddMux("m", gt, d1, d2))
	must(g.AddOutput("out", m))
	return g
}

func TestConsts(t *testing.T) {
	g := buildAbs(t)
	cs := g.Consts()
	if len(cs) != 1 || g.Node(cs[0]).Name != "one" || g.Node(cs[0]).Value != 1 {
		t.Fatalf("Consts = %v", cs)
	}
}
