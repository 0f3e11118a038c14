package core

import (
	"testing"

	"repro/internal/cdfg"
)

// TestBranchCandidates: |a-b| has exactly one mux with both branches
// gateable — true gates d1, false gates d2 — and the enumeration is
// deterministic and independent of inserted control edges.
func TestBranchCandidates(t *testing.T) {
	g := compile(t, absDiffSrc)
	cands := BranchCandidates(g)
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v, want 2", cands)
	}
	sel := g.Lookup("g")
	if !cands[0].WhenTrue || cands[1].WhenTrue {
		t.Fatalf("branch order = %+v, want true before false", cands)
	}
	for _, c := range cands {
		if c.Mux != cands[0].Mux || c.Sel != sel {
			t.Fatalf("candidate %+v: want shared mux and select %d", c, sel)
		}
		if len(c.Members) != 1 {
			t.Fatalf("candidate %+v: want exactly one member", c)
		}
	}
	if g.Node(cands[0].Members[0]).Name != "d1" || g.Node(cands[1].Members[0]).Name != "d2" {
		t.Fatalf("members = %v / %v, want d1 / d2", cands[0].Members, cands[1].Members)
	}

	// The sets depend only on dataflow: a serializing control edge must
	// not change the enumeration.
	gc := g.Fork()
	if err := gc.AddControlEdge(sel, gc.Lookup("d1")); err != nil {
		t.Fatal(err)
	}
	after := BranchCandidates(gc)
	if len(after) != len(cands) || after[0].Members[0] != cands[0].Members[0] {
		t.Fatalf("control edge changed candidates: %+v vs %+v", after, cands)
	}
}

func TestGatedTops(t *testing.T) {
	g := compile(t, absDiffSrc)
	for _, c := range BranchCandidates(g) {
		tops := GatedTops(g, cdfg.NewNodeSet(c.Members...))
		// Single-member cones are their own tops.
		if len(tops) != 1 || tops[0] != c.Members[0] {
			t.Fatalf("tops of %v = %v", c.Members, tops)
		}
	}
}
