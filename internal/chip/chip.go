package chip

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/rtl"
	"repro/internal/silage"
	"repro/internal/sim"
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
	c  *ctrl.Controller
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

// Build assembles the gate-level chip for the controller.
func Build(c *ctrl.Controller, width int) (*Chip, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("chip: width %d outside [1,%d]", width, MaxWidth)
	}
	b := &builder{
		nl:       rtl.New(c.Graph.Name),
		c:        c,
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
	if err := b.buildUnits(); err != nil {
		return nil, err
	}
	if err := b.buildEnables(); err != nil {
		return nil, err
	}
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
	n := b.c.Steps + 1
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
	for _, id := range b.c.Graph.Inputs() {
		b.ports[id] = b.nl.Input(b.c.Graph.Node(id).Name, b.w)
	}
}

// buildValueRegisters allocates every operation's result register on
// placeholder data/enable nets, so that units (whose inputs read register
// outputs) can be built afterwards.
func (b *builder) buildValueRegisters() {
	for _, n := range b.c.Graph.Nodes() {
		if !n.IsOp() {
			continue
		}
		d := b.nl.PlaceholderBus(b.w)
		en := b.nl.PlaceholderBus(1)
		b.valueD[n.ID] = d
		b.valueE[n.ID] = en[0]
		b.valueQ[n.ID] = b.nl.RegisterE(d, en[0])
	}
}

// value returns the bus carrying node id's settled result: register
// outputs for ops, ports for inputs, hardwired buses for constants, and
// shifted wiring for the free shift nodes.
func (b *builder) value(id cdfg.NodeID) []rtl.Net {
	return b.valueAt(id, -1)
}

// valueAt returns the bus carrying node id's result as visible during the
// given cycle. A value produced in exactly that cycle is not yet in its
// register — it is tapped from the producing unit's combinational output
// (the register's data input), which is how back-to-back steps chain in
// the generated hardware. Pass cycle -1 for the settled (post-sample)
// view.
func (b *builder) valueAt(id cdfg.NodeID, cycle int) []rtl.Net {
	n := b.c.Graph.Node(id)
	switch {
	case n.Kind == cdfg.KindInput:
		return b.ports[id]
	case n.Kind == cdfg.KindConst:
		return b.nl.ConstBus(n.Value, b.w)
	case n.Kind == cdfg.KindShl:
		return b.nl.ShiftBus(b.valueAt(n.Args[0], cycle), true, n.Shift)
	case n.Kind == cdfg.KindShr:
		return b.nl.ShiftBus(b.valueAt(n.Args[0], cycle), false, n.Shift)
	case n.Kind == cdfg.KindOutput:
		return b.valueAt(n.Args[0], cycle)
	case cycle >= 0 && b.c.Schedule.Time[id] == cycle:
		return b.valueD[id]
	default:
		return b.valueQ[id]
	}
}

// guardBit returns the single-bit net for one guard term as seen during
// the given cycle. A condition produced in that same cycle is tapped from
// the producing register's data input (the unit's combinational output);
// conditions produced earlier come from the register output; boolean
// primary inputs come from their port.
func (b *builder) guardBit(gd sim.Guard, cycle int) rtl.Net {
	selNode := b.c.Graph.Node(gd.Sel)
	var bit rtl.Net
	switch {
	case selNode.Kind == cdfg.KindInput:
		bit = b.ports[gd.Sel][0]
	case b.c.Schedule.Time[gd.Sel] == cycle:
		bit = b.valueD[gd.Sel][0]
	default:
		bit = b.valueQ[gd.Sel][0]
	}
	if !gd.WhenTrue {
		bit = b.inv(bit)
	}
	return bit
}

// enableFor builds the enable net for a load at the given cycle with the
// given guards: state AND guard terms.
func (b *builder) enableFor(cycle int, guards []sim.Guard) rtl.Net {
	term := b.state[cycle]
	for _, gd := range guards {
		term = b.nl.AddGate(rtl.GAnd, term, b.guardBit(gd, cycle))
	}
	return term
}

func zeroExtend(nl *rtl.Netlist, bit rtl.Net, w int) []rtl.Net {
	bus := make([]rtl.Net, w)
	bus[0] = bit
	for i := 1; i < w; i++ {
		bus[i] = rtl.Zero
	}
	return bus
}

// buildUnits creates the execution units with operand steering, operand
// registers, the shared combinational cores, and drives every operation's
// value-register data placeholder. The units come from
// ctrl.(*Controller).Units(): in (class, index) order, each with its
// loads in UnitLoads order.
func (b *builder) buildUnits() error {
	// Multiplexor operations are interconnect, not execution units: they
	// have no input latches to gate. Each is inlined as combinational
	// steering in front of its (possibly guarded) value register. All
	// argument producers finish at least one cycle before the mux's
	// step, so the settled register view is correct.
	for _, n := range b.c.Graph.Nodes() {
		if n.Kind != cdfg.KindMux {
			continue
		}
		sel := b.value(n.Args[cdfg.MuxSel])[0]
		out := b.nl.Mux2Bus(sel, b.value(n.Args[cdfg.MuxTrue]), b.value(n.Args[cdfg.MuxFalse]))
		d := b.valueD[n.ID]
		for i := range d {
			b.nl.Drive(d[i], out[i])
		}
	}

	for _, u := range b.c.Units() {
		if u.Unit.Class == cdfg.ClassMux {
			continue
		}
		ops := u.Loads
		// Per-op load terms (state AND guards), computed once and used
		// both for operand steering and the register enables. Steering
		// by the full term (not just the state bit) matters when two
		// mutually exclusive ops share the unit in the same step: only
		// the guard distinguishes whose operands to route.
		loadTerm := make([]rtl.Net, len(ops))
		for i, ol := range ops {
			loadTerm[i] = b.enableFor(ol.Step, ol.Guards)
		}
		en := b.nl.OrTree(loadTerm...)

		// All execution-unit classes are two-operand (NOT uses the
		// first operand only).
		const numOperands = 2
		operandRegs := make([][]rtl.Net, numOperands)
		for k := 0; k < numOperands; k++ {
			argOf := func(ol ctrl.UnitLoad) []rtl.Net {
				n := b.c.Graph.Node(ol.Op)
				if k >= len(n.Args) {
					return b.nl.ConstBus(0, b.w)
				}
				// Operands are read during the load cycle; a
				// producer executing in that same cycle is
				// tapped combinationally.
				return b.valueAt(n.Args[k], ol.Step)
			}
			src := argOf(ops[0])
			for i, ol := range ops[1:] {
				src = b.nl.Mux2Bus(loadTerm[i+1], argOf(ol), src)
			}
			operandRegs[k] = b.nl.RegisterE(src, en)
		}

		// Combinational core and per-op result wiring.
		if err := b.buildCore(u.Unit, ops, operandRegs); err != nil {
			return err
		}
	}
	return nil
}

// buildCore instantiates the unit's combinational logic and drives the
// value-register data inputs of every op bound to the unit.
func (b *builder) buildCore(u alloc.Unit, ops []ctrl.UnitLoad, regs [][]rtl.Net) error {
	nl := b.nl
	drive := func(op cdfg.NodeID, bus []rtl.Net) {
		d := b.valueD[op]
		for i := range d {
			nl.Drive(d[i], bus[i])
		}
	}
	switch u.Class {
	case cdfg.ClassAdd:
		sum, _ := nl.RippleAdder(regs[0], regs[1], rtl.Zero)
		for _, ol := range ops {
			drive(ol.Op, sum)
		}
	case cdfg.ClassSub:
		diff, _ := nl.RippleSubtractor(regs[0], regs[1])
		for _, ol := range ops {
			drive(ol.Op, diff)
		}
	case cdfg.ClassMul:
		prod := nl.ArrayMultiplier(regs[0], regs[1])
		for _, ol := range ops {
			drive(ol.Op, prod)
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
		for _, ol := range ops {
			var flag rtl.Net
			switch b.c.Graph.Node(ol.Op).Kind {
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
				return fmt.Errorf("chip: op %q is not a comparison", b.c.Graph.Node(ol.Op).Name)
			}
			drive(ol.Op, zeroExtend(nl, flag, b.w))
		}
	case cdfg.ClassLogic:
		a0, b0 := regs[0][0], regs[1][0]
		andF := nl.AddGate(rtl.GAnd, a0, b0)
		orF := nl.AddGate(rtl.GOr, a0, b0)
		notF := nl.AddGate(rtl.GInv, a0)
		for _, ol := range ops {
			var f rtl.Net
			switch b.c.Graph.Node(ol.Op).Kind {
			case cdfg.KindAnd:
				f = andF
			case cdfg.KindOr:
				f = orF
			case cdfg.KindNot:
				f = notF
			default:
				return fmt.Errorf("chip: op %q is not a logic op", b.c.Graph.Node(ol.Op).Name)
			}
			drive(ol.Op, zeroExtend(nl, f, b.w))
		}
	default:
		// ClassMux is inlined in buildUnits and never reaches here.
		return fmt.Errorf("chip: unit class %v not buildable", u.Class)
	}
	return nil
}

// buildEnables drives every value register's enable placeholder.
func (b *builder) buildEnables() error {
	for _, ld := range b.c.Loads {
		if ld.Step == 0 {
			continue // primary inputs: testbench-held ports
		}
		en, ok := b.valueE[ld.Node]
		if !ok {
			return fmt.Errorf("chip: load for unknown register %d", ld.Node)
		}
		b.nl.Drive(en, b.enableFor(ld.Step, ld.Guards))
	}
	return nil
}

func (b *builder) buildOutputs() {
	for _, id := range b.c.Graph.Outputs() {
		name := silage.PortName(b.c.Graph.Node(id).Name)
		b.nl.Output(name, b.value(id))
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
