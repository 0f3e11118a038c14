package alloc

import "repro/internal/cdfg"

// Area model, in NAND2 gate equivalents, matching the generators in
// internal/rtl exactly (a cross-check test in that package keeps the two
// in sync):
//
//	adder       W full adders à 6.0 GE                     -> 6W
//	subtractor  adder + W inverters à 0.5                  -> 6.5W
//	comparator  subtractor + result inverter/buffer        -> 6.5W + 0.5
//	multiplier  W adder rows + W(W+1)/2 partial-product ANDs
//	mux         W 2:1 muxes à 2.5                          -> 2.5W
//	logic       one gate

// UnitArea returns the NAND2-equivalent area of one execution unit of the
// given class at the given datapath width.
func UnitArea(c cdfg.Class, width int) float64 {
	w := float64(width)
	switch c {
	case cdfg.ClassAdd:
		return 6 * w
	case cdfg.ClassSub:
		return 6.5 * w
	case cdfg.ClassComp:
		return 6.5*w + 0.5
	case cdfg.ClassMul:
		return 6*w*w + w*(w+1)/2
	case cdfg.ClassMux:
		return 2.5 * w
	case cdfg.ClassLogic:
		return 1
	default:
		return 0
	}
}

// UnitsArea sums the execution-unit area of a binding: the paper's
// Table II area metric ("area increase due to the extra execution units").
func (b *Binding) UnitsArea(width int) float64 {
	total := 0.0
	for c, n := range b.Units {
		total += float64(n) * UnitArea(c, width)
	}
	return total
}

// AreaIncrease computes the Table II column: the unit area of the power
// managed design relative to the baseline design at the same budget.
func AreaIncrease(pm, baseline *Binding, width int) float64 {
	base := baseline.UnitsArea(width)
	if base == 0 {
		return 1
	}
	return pm.UnitsArea(width) / base
}
