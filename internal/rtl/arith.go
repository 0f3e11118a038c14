package rtl

import "fmt"

// Bus helpers. Buses are LSB-first net slices.

// ConstBus returns a width-bit bus wired to the constant value.
func (n *Netlist) ConstBus(value int64, width int) []Net {
	bus := make([]Net, width)
	for i := 0; i < width; i++ {
		if value>>uint(i)&1 == 1 {
			bus[i] = One
		} else {
			bus[i] = Zero
		}
	}
	return bus
}

// ShiftBus returns the bus shifted by the constant amount: free wiring,
// no gates. Positive left counts shift toward the MSB.
func (n *Netlist) ShiftBus(bus []Net, left bool, by int) []Net {
	w := len(bus)
	out := make([]Net, w)
	for i := range out {
		var src int
		if left {
			src = i - by
		} else {
			src = i + by
		}
		if src >= 0 && src < w {
			out[i] = bus[src]
		} else {
			out[i] = Zero
		}
	}
	return out
}

// fullAdder returns (sum, carry) for one bit position.
func (n *Netlist) fullAdder(a, b, cin Net) (Net, Net) {
	axb := n.AddGate(GXor, a, b)
	sum := n.AddGate(GXor, axb, cin)
	and1 := n.AddGate(GAnd, a, b)
	and2 := n.AddGate(GAnd, axb, cin)
	carry := n.AddGate(GOr, and1, and2)
	return sum, carry
}

// RippleAdder builds a ripple-carry adder: sum = a + b + cin, plus the
// carry out. Buses must have equal width.
func (n *Netlist) RippleAdder(a, b []Net, cin Net) ([]Net, Net) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rtl: adder width mismatch %d vs %d", len(a), len(b)))
	}
	sum := make([]Net, len(a))
	c := cin
	for i := range a {
		sum[i], c = n.fullAdder(a[i], b[i], c)
	}
	return sum, c
}

// RippleSubtractor builds diff = a - b (two's complement: a + ~b + 1) and
// returns the not-borrow (carry out; 1 means a >= b unsigned).
func (n *Netlist) RippleSubtractor(a, b []Net) ([]Net, Net) {
	nb := make([]Net, len(b))
	for i := range b {
		nb[i] = n.AddGate(GInv, b[i])
	}
	return n.RippleAdder(a, nb, One)
}

// CompareGT returns a single net that is high when a > b (unsigned).
func (n *Netlist) CompareGT(a, b []Net) Net {
	// b - a borrows (not-carry) exactly when a > b.
	_, c := n.RippleSubtractor(b, a)
	return n.AddGate(GInv, c)
}

// CompareGE returns a >= b (unsigned).
func (n *Netlist) CompareGE(a, b []Net) Net {
	_, c := n.RippleSubtractor(a, b)
	return n.AddGate(GBuf, c)
}

// CompareEQ returns a == b.
func (n *Netlist) CompareEQ(a, b []Net) Net {
	if len(a) != len(b) {
		panic("rtl: comparator width mismatch")
	}
	var acc Net = One
	for i := range a {
		ne := n.AddGate(GXor, a[i], b[i])
		eq := n.AddGate(GInv, ne)
		acc = n.AddGate(GAnd, acc, eq)
	}
	return acc
}

// ArrayMultiplier builds an array multiplier returning the low len(a) bits
// of a*b (the datapath is fixed width, as in the paper's 8-bit setup).
func (n *Netlist) ArrayMultiplier(a, b []Net) []Net {
	w := len(a)
	if len(b) != w {
		panic("rtl: multiplier width mismatch")
	}
	// Partial products, added row by row; only bits below w are kept.
	acc := make([]Net, w)
	for i := range acc {
		acc[i] = Zero
	}
	for i := 0; i < w; i++ {
		// Row i: (a & b[i]) << i, truncated to w bits.
		row := make([]Net, w)
		for j := range row {
			if j < i {
				row[j] = Zero
			} else {
				row[j] = n.AddGate(GAnd, a[j-i], b[i])
			}
		}
		acc, _ = n.RippleAdder(acc, row, Zero)
	}
	return acc
}

// Mux2Bus selects a when sel is high, else b, bit by bit.
func (n *Netlist) Mux2Bus(sel Net, a, b []Net) []Net {
	if len(a) != len(b) {
		panic("rtl: mux width mismatch")
	}
	out := make([]Net, len(a))
	for i := range a {
		out[i] = n.AddGate(GMux2, sel, a[i], b[i])
	}
	return out
}

// RegisterE builds a bank of enabled flip-flops and returns the Q bus.
func (n *Netlist) RegisterE(d []Net, en Net) []Net {
	q := make([]Net, len(d))
	for i := range d {
		q[i] = n.AddGate(GDffE, d[i], en)
	}
	return q
}

// OrTree reduces the nets with OR gates (returns Zero for no inputs).
func (n *Netlist) OrTree(ins ...Net) Net {
	if len(ins) == 0 {
		return Zero
	}
	acc := ins[0]
	for _, x := range ins[1:] {
		acc = n.AddGate(GOr, acc, x)
	}
	return acc
}
