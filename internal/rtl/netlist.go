package rtl

import (
	"fmt"
)

// Net identifies a single-bit signal. Net 0 is constant zero and net 1 is
// constant one in every netlist.
type Net int

// Predefined constant nets.
const (
	Zero Net = 0
	One  Net = 1
)

// GateKind enumerates the primitive cells.
type GateKind int

const (
	// GInv is an inverter.
	GInv GateKind = iota
	// GBuf is a buffer.
	GBuf
	// GAnd, GOr, GNand, GNor, GXor are two-input gates.
	GAnd
	GOr
	GNand
	GNor
	GXor
	// GMux2 selects ins[1] when ins[0] is high, else ins[2].
	GMux2
	// GDffE is a D flip-flop with write enable: ins[0] is the data,
	// ins[1] the enable. State updates on Step.
	GDffE
)

var gateNames = map[GateKind]string{
	GInv: "inv", GBuf: "buf", GAnd: "and", GOr: "or",
	GNand: "nand", GNor: "nor", GXor: "xor", GMux2: "mux2", GDffE: "dffe",
}

// String names the gate kind.
func (k GateKind) String() string {
	if s, ok := gateNames[k]; ok {
		return s
	}
	return fmt.Sprintf("gate(%d)", int(k))
}

// gateEquivalents approximates each cell's area in NAND2 equivalents.
var gateEquivalents = map[GateKind]float64{
	GInv: 0.5, GBuf: 0.5, GAnd: 1, GOr: 1, GNand: 1, GNor: 1,
	GXor: 1.5, GMux2: 2.5, GDffE: 6,
}

// Gate is one primitive cell instance.
type Gate struct {
	Kind GateKind
	Ins  []Net
	Out  Net
}

// Netlist is a flat gate-level circuit. Create with New.
type Netlist struct {
	Name string

	numNets int
	gates   []Gate
	driver  []int // per net: index into gates, -1 for inputs/constants

	inputs  []Net
	outputs []Net
	inNames map[string][]Net
	outName map[string][]Net

	dffs []int // gate indices of GDffE cells, in creation order
}

// New returns an empty netlist with the constant nets allocated.
func New(name string) *Netlist {
	n := &Netlist{
		Name:    name,
		inNames: make(map[string][]Net),
		outName: make(map[string][]Net),
	}
	// Nets 0 and 1 are the constants.
	n.numNets = 2
	n.driver = []int{-1, -1}
	return n
}

// NewNet allocates a fresh undriven net.
func (n *Netlist) NewNet() Net {
	id := Net(n.numNets)
	n.numNets++
	n.driver = append(n.driver, -1)
	return id
}

// NumGates returns the number of gate instances.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumDFFs returns the number of flip-flops.
func (n *Netlist) NumDFFs() int { return len(n.dffs) }

// Area returns the NAND2-equivalent area of the netlist.
func (n *Netlist) Area() float64 {
	total := 0.0
	for _, g := range n.gates {
		total += gateEquivalents[g.Kind]
	}
	return total
}

// AddGate instantiates a primitive cell and returns its output net.
func (n *Netlist) AddGate(kind GateKind, ins ...Net) Net {
	want := 2
	switch kind {
	case GInv, GBuf:
		want = 1
	case GMux2:
		want = 3
	case GDffE:
		want = 2
	}
	if len(ins) != want {
		panic(fmt.Sprintf("rtl: %s wants %d inputs, got %d", kind, want, len(ins)))
	}
	for _, in := range ins {
		if in < 0 || int(in) >= n.numNets {
			panic(fmt.Sprintf("rtl: gate input references unknown net %d", in))
		}
	}
	out := n.NewNet()
	n.gates = append(n.gates, Gate{Kind: kind, Ins: ins, Out: out})
	n.driver[out] = len(n.gates) - 1
	if kind == GDffE {
		n.dffs = append(n.dffs, len(n.gates)-1)
	}
	return out
}

// Input declares a width-bit input bus (LSB first) under the given name.
func (n *Netlist) Input(name string, width int) []Net {
	if _, dup := n.inNames[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate input %q", name))
	}
	bus := make([]Net, width)
	for i := range bus {
		bus[i] = n.NewNet()
		n.inputs = append(n.inputs, bus[i])
	}
	n.inNames[name] = bus
	return bus
}

// Output declares the given bus as an output under the given name.
func (n *Netlist) Output(name string, bus []Net) {
	if _, dup := n.outName[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate output %q", name))
	}
	cp := append([]Net(nil), bus...)
	n.outName[name] = cp
	n.outputs = append(n.outputs, cp...)
}

// InputNames returns the declared input bus names (iteration order is not
// deterministic; callers sort if needed).
func (n *Netlist) InputNames() map[string][]Net { return n.inNames }

// OutputBus returns the named output bus.
func (n *Netlist) OutputBus(name string) []Net { return n.outName[name] }

// PlaceholderBus allocates width undriven nets, to be connected later with
// Drive. Use for feedback paths (state machines, accumulators) where a
// flip-flop's data input depends on its own output.
func (n *Netlist) PlaceholderBus(width int) []Net {
	bus := make([]Net, width)
	for i := range bus {
		bus[i] = n.NewNet()
	}
	return bus
}

// Drive connects src to a previously undriven placeholder net through a
// buffer. It panics if the placeholder already has a driver.
func (n *Netlist) Drive(placeholder, src Net) {
	if placeholder <= One {
		panic("rtl: cannot drive a constant net")
	}
	if n.driver[placeholder] != -1 {
		panic(fmt.Sprintf("rtl: net %d already driven", placeholder))
	}
	for _, in := range n.inputs {
		if in == placeholder {
			panic("rtl: cannot drive an input net")
		}
	}
	n.gates = append(n.gates, Gate{Kind: GBuf, Ins: []Net{src}, Out: placeholder})
	n.driver[placeholder] = len(n.gates) - 1
}

// FeedbackRegister builds a width-bit always-enabled register whose data
// input is computed from its own output by build, and returns the Q bus.
func (n *Netlist) FeedbackRegister(width int, build func(q []Net) []Net) []Net {
	d := n.PlaceholderBus(width)
	q := n.RegisterE(d, One)
	next := build(q)
	if len(next) != width {
		panic(fmt.Sprintf("rtl: feedback width %d, want %d", len(next), width))
	}
	for i := range d {
		n.Drive(d[i], next[i])
	}
	return q
}
