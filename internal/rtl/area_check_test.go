package rtl

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/cdfg"
)

// TestAreaModelMatchesGenerators keeps alloc.UnitArea, which Table II's
// area ratios weigh units by, equal to the gate counts of this package's
// adder, subtractor, CompareGT, array multiplier and 2:1 mux generators,
// at several widths. It does not tie Table II to Table III: the chip
// builds its comparator units from CompareGE and an equality tree, not
// from CompareGT, so a chip comparator costs more than the model's.
func TestAreaModelMatchesGenerators(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		build := func(f func(n *Netlist, a, b []Net)) float64 {
			n := New("u")
			a := n.Input("a", w)
			b := n.Input("b", w)
			f(n, a, b)
			return n.Area()
		}
		adder := build(func(n *Netlist, a, b []Net) { n.RippleAdder(a, b, Zero) })
		if got := alloc.UnitArea(cdfg.ClassAdd, w); got != adder {
			t.Errorf("w=%d adder: model %v, generator %v", w, got, adder)
		}
		sub := build(func(n *Netlist, a, b []Net) { n.RippleSubtractor(a, b) })
		if got := alloc.UnitArea(cdfg.ClassSub, w); got != sub {
			t.Errorf("w=%d sub: model %v, generator %v", w, got, sub)
		}
		comp := build(func(n *Netlist, a, b []Net) { n.CompareGT(a, b) })
		if got := alloc.UnitArea(cdfg.ClassComp, w); got != comp {
			t.Errorf("w=%d comp: model %v, generator %v", w, got, comp)
		}
		mul := build(func(n *Netlist, a, b []Net) { n.ArrayMultiplier(a, b) })
		if got := alloc.UnitArea(cdfg.ClassMul, w); got != mul {
			t.Errorf("w=%d mul: model %v, generator %v", w, got, mul)
		}
		mux := build(func(n *Netlist, a, b []Net) { n.Mux2Bus(One, a, b) })
		if got := alloc.UnitArea(cdfg.ClassMux, w); got != mux {
			t.Errorf("w=%d mux: model %v, generator %v", w, got, mux)
		}
	}
}
