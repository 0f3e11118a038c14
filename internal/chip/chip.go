package chip

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/hdl"
	"repro/internal/rtl"
	"repro/internal/silage"
)

// Chip is a built gate-level design.
type Chip struct {
	// Netlist is the gate-level circuit.
	Netlist *rtl.Netlist
	// Controller is the FSM description the chip implements.
	Controller *ctrl.Controller
	// Width is the datapath word width.
	Width int
	// CyclesPerSample is Steps+1 (the prologue plus one cycle per step).
	CyclesPerSample int

	// dbgQ exposes value-register outputs for white-box tests.
	dbgQ map[cdfg.NodeID][]rtl.Net
}

type builder struct {
	nl *rtl.Netlist
	d  *hdl.Design
	w  int

	state []rtl.Net // one-hot state bits, length Steps+1

	ports  map[cdfg.NodeID][]rtl.Net // input node -> port bus
	valueQ map[cdfg.NodeID][]rtl.Net // register outputs
	valueD map[cdfg.NodeID][]rtl.Net // register data placeholders
	valueE map[cdfg.NodeID]rtl.Net   // register enable placeholders

	invCache map[rtl.Net]rtl.Net
}

// MaxWidth is the widest datapath the gate-level builder supports; wider
// designs still synthesize and simulate behaviorally, but cannot be
// lowered to a netlist (the verification oracle skips its gate-level
// stage above this bound).
const MaxWidth = 32

// Build maps the controller's register-transfer structure, as hdl.Lower
// builds it, to gates.
func Build(c *ctrl.Controller, width int) (*Chip, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("chip: width %d outside [1,%d]", width, MaxWidth)
	}
	d, err := hdl.Lower(c, width)
	if err != nil {
		return nil, fmt.Errorf("chip: %w", err)
	}
	b := &builder{
		nl:       rtl.New(c.Graph.Name),
		d:        d,
		w:        width,
		ports:    make(map[cdfg.NodeID][]rtl.Net),
		valueQ:   make(map[cdfg.NodeID][]rtl.Net),
		valueD:   make(map[cdfg.NodeID][]rtl.Net),
		valueE:   make(map[cdfg.NodeID]rtl.Net),
		invCache: make(map[rtl.Net]rtl.Net),
	}
	b.buildStateRing()
	b.buildPorts()
	b.buildValueRegisters()
	if err := b.buildData(); err != nil {
		return nil, err
	}
	b.buildEnables()
	b.buildOutputs()
	return &Chip{
		Netlist:         b.nl,
		Controller:      c,
		Width:           width,
		CyclesPerSample: c.Steps + 1,
		dbgQ:            b.valueQ,
	}, nil
}

// buildStateRing creates the self-starting one-hot ring counter: when no
// state bit is set (power-on), state 0 loads first.
func (b *builder) buildStateRing() {
	n := b.d.Ctrl.Steps + 1
	d := b.nl.PlaceholderBus(n)
	q := b.nl.RegisterE(d, rtl.One)
	b.state = q
	any := b.nl.OrTree(q...)
	none := b.inv(any)
	first := b.nl.AddGate(rtl.GOr, none, q[n-1])
	b.nl.Drive(d[0], first)
	for k := 1; k < n; k++ {
		b.nl.Drive(d[k], q[k-1])
	}
}

func (b *builder) inv(x rtl.Net) rtl.Net {
	if v, ok := b.invCache[x]; ok {
		return v
	}
	v := b.nl.AddGate(rtl.GInv, x)
	b.invCache[x] = v
	return v
}

func (b *builder) buildPorts() {
	for _, id := range b.d.Graph.Inputs() {
		b.ports[id] = b.nl.Input(b.d.Graph.Node(id).Name, b.w)
	}
}

// buildValueRegisters allocates every operation's result register on
// placeholder data/enable nets, so that units (whose inputs read register
// outputs) can be built afterwards.
func (b *builder) buildValueRegisters() {
	for _, r := range b.d.Regs {
		d := b.nl.PlaceholderBus(b.w)
		en := b.nl.PlaceholderBus(1)
		b.valueD[r.Op] = d
		b.valueE[r.Op] = en[0]
		b.valueQ[r.Op] = b.nl.RegisterE(d, en[0])
	}
}

// src returns the bus a read of s takes: an input's port, a hardwired
// constant, shifted wiring, an operation's register output or, for a
// result read, its register's data input.
func (b *builder) src(s hdl.Src) []rtl.Net {
	n := b.d.Graph.Node(s.Node)
	switch n.Kind {
	case cdfg.KindInput:
		return b.ports[s.Node]
	case cdfg.KindConst:
		return b.nl.ConstBus(n.Value, b.w)
	case cdfg.KindShl, cdfg.KindShr:
		return b.nl.ShiftBus(b.src(hdl.Src{Node: n.Args[0], Next: s.Next}), n.Kind == cdfg.KindShl, n.Shift)
	}
	if s.Next {
		return b.valueD[s.Node]
	}
	return b.valueQ[s.Node]
}

// enable returns the net of a load enable: its state bit ANDed with each
// guard bit.
func (b *builder) enable(e hdl.Enable) rtl.Net {
	term := b.state[e.State]
	for _, bit := range e.Bits {
		x := b.src(bit.Src)[0]
		if !bit.WhenTrue {
			x = b.inv(x)
		}
		term = b.nl.AddGate(rtl.GAnd, term, x)
	}
	return term
}

func (b *builder) drive(op cdfg.NodeID, bus []rtl.Net) {
	d := b.valueD[op]
	for i := range d {
		b.nl.Drive(d[i], bus[i])
	}
}

func zeroExtend(bit rtl.Net, w int) []rtl.Net {
	bus := make([]rtl.Net, w)
	bus[0] = bit
	for i := 1; i < w; i++ {
		bus[i] = rtl.Zero
	}
	return bus
}

// buildData drives every value register's data: a multiplexor's
// steering, or the result of its unit, which it builds with its operand
// steering, operand registers and shared combinational core.
func (b *builder) buildData() error {
	for _, r := range b.d.Regs {
		if r.Mux != nil {
			sel := b.src(r.Mux[cdfg.MuxSel])[0]
			b.drive(r.Op, b.nl.Mux2Bus(sel, b.src(r.Mux[cdfg.MuxTrue]), b.src(r.Mux[cdfg.MuxFalse])))
		}
	}

	for _, u := range b.d.Units {
		// Per-load enables, used both for operand steering and the
		// register enables. Steering by the full enable (not just the
		// state bit) matters when two mutually exclusive ops share the
		// unit in the same step: only the guard distinguishes whose
		// operands to route.
		loadTerm := make([]rtl.Net, len(u.Loads))
		for i, ld := range u.Loads {
			loadTerm[i] = b.enable(ld.En)
		}
		en := b.nl.OrTree(loadTerm...)

		// All execution-unit classes are two-operand (NOT uses the
		// first operand only).
		const numOperands = 2
		operandRegs := make([][]rtl.Net, numOperands)
		for k := 0; k < numOperands; k++ {
			argOf := func(ld hdl.Load) []rtl.Net {
				if k >= len(ld.Args) {
					return b.nl.ConstBus(0, b.w)
				}
				return b.src(ld.Args[k])
			}
			src := argOf(u.Loads[0])
			for i, ld := range u.Loads[1:] {
				src = b.nl.Mux2Bus(loadTerm[i+1], argOf(ld), src)
			}
			operandRegs[k] = b.nl.RegisterE(src, en)
		}

		// Combinational core and per-op result wiring.
		if err := b.buildCore(u, operandRegs); err != nil {
			return err
		}
	}
	return nil
}

// buildCore instantiates the unit's combinational logic and drives the
// value-register data inputs of every op bound to the unit.
func (b *builder) buildCore(u hdl.Unit, regs [][]rtl.Net) error {
	nl := b.nl
	switch u.Class {
	case cdfg.ClassAdd:
		sum, _ := nl.RippleAdder(regs[0], regs[1], rtl.Zero)
		for _, ld := range u.Loads {
			b.drive(ld.Op, sum)
		}
	case cdfg.ClassSub:
		diff, _ := nl.RippleSubtractor(regs[0], regs[1])
		for _, ld := range u.Loads {
			b.drive(ld.Op, diff)
		}
	case cdfg.ClassMul:
		prod := nl.ArrayMultiplier(regs[0], regs[1])
		for _, ld := range u.Loads {
			b.drive(ld.Op, prod)
		}
	case cdfg.ClassComp:
		// One subtract core plus an equality tree yields all six
		// flags: GE = carry(a-b); LT = !GE; EQ; NE = !EQ;
		// GT = GE && NE; LE = !GT.
		ge := nl.CompareGE(regs[0], regs[1])
		eq := nl.CompareEQ(regs[0], regs[1])
		lt := nl.AddGate(rtl.GInv, ge)
		ne := nl.AddGate(rtl.GInv, eq)
		gt := nl.AddGate(rtl.GAnd, ge, ne)
		le := nl.AddGate(rtl.GInv, gt)
		for _, ld := range u.Loads {
			var flag rtl.Net
			switch b.d.Graph.Node(ld.Op).Kind {
			case cdfg.KindGe:
				flag = ge
			case cdfg.KindLt:
				flag = lt
			case cdfg.KindEq:
				flag = eq
			case cdfg.KindNe:
				flag = ne
			case cdfg.KindGt:
				flag = gt
			case cdfg.KindLe:
				flag = le
			default:
				return fmt.Errorf("chip: op %q is not a comparison", b.d.Graph.Node(ld.Op).Name)
			}
			b.drive(ld.Op, zeroExtend(flag, b.w))
		}
	case cdfg.ClassLogic:
		a0, b0 := regs[0][0], regs[1][0]
		andF := nl.AddGate(rtl.GAnd, a0, b0)
		orF := nl.AddGate(rtl.GOr, a0, b0)
		notF := nl.AddGate(rtl.GInv, a0)
		for _, ld := range u.Loads {
			var f rtl.Net
			switch b.d.Graph.Node(ld.Op).Kind {
			case cdfg.KindAnd:
				f = andF
			case cdfg.KindOr:
				f = orF
			case cdfg.KindNot:
				f = notF
			default:
				return fmt.Errorf("chip: op %q is not a logic op", b.d.Graph.Node(ld.Op).Name)
			}
			b.drive(ld.Op, zeroExtend(f, b.w))
		}
	default:
		return fmt.Errorf("chip: unit class %v not buildable", u.Class)
	}
	return nil
}

// buildEnables drives every value register's enable placeholder.
func (b *builder) buildEnables() {
	for _, r := range b.d.Regs {
		b.nl.Drive(b.valueE[r.Op], b.enable(r.En))
	}
}

func (b *builder) buildOutputs() {
	for _, o := range b.d.Outputs {
		b.nl.Output(silage.PortName(b.d.Graph.Node(o.Node).Name), b.src(o.Src))
	}
}

// NewTestbench wraps a simulator for the chip, advanced one cycle so the
// ring counter sits in the prologue state.
func (c *Chip) NewTestbench() (*rtl.Simulator, error) {
	s, err := rtl.NewSimulator(c.Netlist)
	if err != nil {
		return nil, err
	}
	s.Propagate()
	s.Step() // self-start: state 0 becomes active
	return s, nil
}

// RunSample drives one input sample through the chip (Steps+1 cycles) and
// returns the outputs. The simulator must be positioned at the prologue
// state (as NewTestbench and previous RunSample calls leave it).
func (c *Chip) RunSample(s *rtl.Simulator, inputs map[string]int64) (map[string]int64, error) {
	for name, v := range inputs {
		if err := s.SetInput(name, v); err != nil {
			return nil, err
		}
	}
	// Let the combinational logic settle on the new operands before the
	// first edge: Step captures flip-flop data inputs pre-edge.
	s.Propagate()
	for i := 0; i < c.CyclesPerSample; i++ {
		s.Step()
	}
	out := make(map[string]int64)
	for _, id := range c.Controller.Graph.Outputs() {
		name := silage.PortName(c.Controller.Graph.Node(id).Name)
		v, err := s.ReadOutput(name)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

// chDbgQ exposes a node's value-register output bus for debugging.
func chDbgQ(c *Chip, id cdfg.NodeID) []rtl.Net { return c.dbgQ[id] }
