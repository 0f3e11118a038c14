package hdl

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/silage"
	"repro/internal/sim"
)

// Sanitize turns a node name into an identifier legal in VHDL and in
// Verilog: letters and digits are kept, each run of other runes becomes
// one '_' between them, a leading digit gets an 'n' before it, and a name
// with nothing left becomes "sig". The lowering also keeps every name
// clear of reserved words and of every other name (see claim).
func Sanitize(name string) string {
	var b strings.Builder
	gap := false
	for _, r := range name {
		letter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		digit := r >= '0' && r <= '9'
		switch {
		case !letter && !digit:
			gap = b.Len() > 0
		case b.Len() == 0 && digit:
			b.WriteByte('n')
			b.WriteRune(r)
		default:
			if gap {
				b.WriteByte('_')
				gap = false
			}
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "sig"
	}
	return b.String()
}

// reserved holds, lower-cased, the reserved words of VHDL-93 and of
// Verilog-2001, and the names the printers declare themselves: the clock
// and reset ports, the controller's state, the instance, process and
// architecture labels, and the IEEE library names the VHDL uses.
var reserved = func() map[string]bool {
	const words = `
abs access after alias all and architecture array assert attribute begin
block body buffer bus case component configuration constant disconnect
downto else elsif end entity exit file for function generate generic group
guarded if impure in inertial inout is label library linkage literal loop
map mod nand new next nor not null of on open or others out package port
postponed procedure process pure range record register reject rem report
return rol ror select severity shared signal sla sll sra srl subtype then
to transport type unaffected units until use variable wait when while with
xnor xor

always assign automatic buf bufif0 bufif1 casex casez cell cmos config
deassign default defparam design disable edge endcase endconfig endfunction
endgenerate endmodule endprimitive endspecify endtable endtask event force
forever fork genvar highz0 highz1 ifnone incdir include initial input
instance integer join large liblist localparam macromodule medium module
negedge nmos noshowcancelled notif0 notif1 output parameter pmos posedge
primitive pull0 pull1 pulldown pullup pulsestyle_onevent
pulsestyle_ondetect rcmos real realtime reg release repeat rnmos rpmos rtran
rtranif0 rtranif1 scalared showcancelled signed small specify specparam
strong0 strong1 supply0 supply1 table task time tran tranif0 tranif1 tri
tri0 tri1 triand trior trireg unsigned vectored wand weak0 weak1 wire wor

clk rst state dp fsm regs advance rtl structure ieee std work
std_logic_1164 numeric_std std_logic natural rising_edge to_unsigned resize
shift_left shift_right`
	m := make(map[string]bool)
	for _, w := range strings.Fields(words) {
		m[w] = true
	}
	return m
}()

// names hands out the identifiers of one design. VHDL ignores case, so
// two names may not differ only in case.
type names map[string]bool

// claim takes and returns base, or the first of base_1, base_2, ... when
// base is reserved or already taken.
func (n names) claim(base string) string {
	name := base
	for i := 1; reserved[strings.ToLower(name)] || n[strings.ToLower(name)]; i++ {
		name = base + "_" + strconv.Itoa(i)
	}
	n[strings.ToLower(name)] = true
	return name
}

// Port is one port of the datapath, the controller or the top level.
type Port struct {
	// Name is the port's identifier. The top level connects every
	// instance port to the signal of the same name.
	Name string
	// Out marks an output; other ports are inputs.
	Out bool
	// Bus marks a word of the design's width; other ports are one bit.
	Bus bool
}

// Src is a value as the datapath reads it during one control step.
type Src struct {
	// Node is a primary input, a constant, an operation, or a constant
	// shift of one of them.
	Node cdfg.NodeID
	// Next marks a read during the step in which the operation under
	// Node's shifts executes. Its register latches the result only at
	// that step's closing edge, so the read takes the operation's
	// combinational result (Reg.Result). Any later read takes the
	// register.
	Next bool
}

// Bit is one guard term of an enable: it holds while bit 0 of Src equals
// WhenTrue.
type Bit struct {
	Src
	WhenTrue bool
}

// Enable is a load enable: high in controller state State while every
// guard bit holds. Only the power managed controller has guard bits.
type Enable struct {
	State int
	Bits  []Bit
}

// Reg is an operation's value register. It latches at the closing edge
// of the operation's step.
type Reg struct {
	Op cdfg.NodeID
	// Name is the register, Ld its load enable.
	Name, Ld string
	En       Enable
	// Result names the value the register latches, which a read during
	// the operation's step (Src.Next) takes too. For an addition,
	// subtraction or multiplication it is the unit's Y. Every other
	// operation drives a Result of its own (OwnResult): a comparison or
	// logic operation from its unit's operand registers, a multiplexor
	// from Mux.
	Result string
	// Unit indexes Design.Units for an operation that executes on a
	// unit; it is -1 for a multiplexor.
	Unit int
	// Mux is a multiplexor's steering, inlined in front of its register
	// and indexed by cdfg.MuxSel, MuxTrue and MuxFalse: Result is the
	// true input while bit 0 of the select is set, else the false input.
	// It is nil for every other operation.
	Mux []Src
}

// Load is one operand load of a unit: when its enable is high, the unit's
// operand registers latch Args at the closing edge of the step before the
// operation executes. A load with one argument latches zero into B.
type Load struct {
	Op cdfg.NodeID
	// Go names the enable, which also steers Args into the unit.
	Go   string
	En   Enable
	Args []Src
}

// Unit is one execution unit of the datapath. Multiplexors are not
// units: each is inlined in front of its register (Reg.Mux).
type Unit struct {
	Class cdfg.Class
	// A and B name the operand registers. Y names the result of an
	// adder, subtractor or multiplier core; it is empty for comparison
	// and logic units, whose operations each latch a flag of their own.
	// Label names the process that loads the operands.
	A, B, Y, Label string
	// Loads are the unit's operand loads in steering order: when two
	// enables are high at once, the later load's operands win.
	Loads []Load
}

// Cond is a condition bit the controller reads.
type Cond struct {
	Src
	// Port is the controller's input: a primary input's own port, whose
	// bit 0 is read, or a one-bit port the datapath exports, cond_ for a
	// register read and next_ for a result read.
	Port Port
}

// Output is a primary output of the design.
type Output struct {
	Node cdfg.NodeID
	Name string
	Src  Src
}

// Design is a controller lowered to the register-transfer structure that
// the gate-level chip is built from and that both printers print.
type Design struct {
	Ctrl  *ctrl.Controller
	Graph *cdfg.Graph
	Width int
	// Top, Datapath and FSM name the three design units: the top level
	// and the datapath and controller it instantiates.
	Top, Datapath, FSM string
	// Regs lists the operations' value registers in ID order.
	Regs []Reg
	// Units lists the execution units in (class, index) order.
	Units []Unit
	// Conds lists exactly the bits that the enables read, in the order
	// the registers' and then the units' enables first read them.
	Conds []Cond
	// Outputs lists the primary outputs in graph order. They are read
	// once the sample is done, so no source is a result read.
	Outputs []Output
	// DatapathPorts, ControllerPorts and TopPorts are the port lists in
	// declaration order. The top level's two instances connect exactly
	// the datapath and the controller ports.
	DatapathPorts, ControllerPorts, TopPorts []Port
	// Wires are the top level's internal signals, all one bit: the load
	// enables and the condition bits the datapath exports.
	Wires []string

	input []string     // the port of each primary input, by node ID
	reg   []int        // the Regs index of each operation, by node ID
	cond  map[Src]Port // the controller's port of each condition bit
}

// Lower lowers a controller at the given word width, which must lie in
// [1, 64].
func Lower(c *ctrl.Controller, width int) (*Design, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("width %d outside [1,64]", width)
	}
	g, at := c.Graph, c.Schedule.Time
	d := &Design{
		Ctrl: c, Graph: g, Width: width,
		input: make([]string, g.NumNodes()),
		reg:   make([]int, g.NumNodes()),
		cond:  make(map[Src]Port),
	}
	taken := make(names)
	d.Top = taken.claim(Sanitize(g.Name))
	d.Datapath = taken.claim(d.Top + "_datapath")
	d.FSM = taken.claim(d.Top + "_controller")

	// src is id's value as read during step. This is the one place the
	// same-step rule lives.
	src := func(id cdfg.NodeID, step int) Src {
		root := g.Node(id)
		for root.Kind == cdfg.KindShl || root.Kind == cdfg.KindShr {
			root = g.Node(root.Args[0])
		}
		return Src{Node: id, Next: root.IsOp() && at[root.ID] == step}
	}
	var read []Src // the bits the enables read, in first-read order
	enable := func(step int, guards []sim.Guard) Enable {
		e := Enable{State: step}
		for _, gd := range guards {
			b := Bit{src(gd.Sel, step), gd.WhenTrue}
			if _, ok := d.cond[b.Src]; !ok {
				d.cond[b.Src] = Port{}
				read = append(read, b.Src)
			}
			e.Bits = append(e.Bits, b)
		}
		return e
	}

	clk, rst := Port{Name: "clk"}, Port{Name: "rst"}
	var ins, outs, lds, gos, exports, conds []Port
	for _, id := range g.Inputs() {
		d.input[id] = taken.claim(Sanitize(g.Node(id).Name))
		ins = append(ins, Port{Name: d.input[id], Bus: true})
	}
	for _, id := range g.Outputs() {
		n := g.Node(id)
		o := Output{Node: id, Name: taken.claim(Sanitize(silage.PortName(n.Name))), Src: src(n.Args[0], -1)}
		d.Outputs = append(d.Outputs, o)
		outs = append(outs, Port{Name: o.Name, Out: true, Bus: true})
	}

	loads := make([]ctrl.Load, g.NumNodes())
	for _, ld := range c.Loads {
		loads[ld.Node] = ld
	}
	for _, n := range g.Nodes() {
		d.reg[n.ID] = -1
		if !n.IsOp() {
			continue
		}
		ld, name := loads[n.ID], Sanitize(n.Name)
		r := Reg{Op: n.ID, Name: taken.claim("r_" + name), Ld: taken.claim("ld_" + name), En: enable(ld.Step, ld.Guards), Unit: -1}
		if n.Kind == cdfg.KindMux || n.Kind.IsBoolean() {
			r.Result = taken.claim("y_" + name)
		}
		if n.Kind == cdfg.KindMux {
			for _, a := range n.Args {
				r.Mux = append(r.Mux, src(a, ld.Step))
			}
		}
		d.reg[n.ID] = len(d.Regs)
		d.Regs = append(d.Regs, r)
		lds = append(lds, Port{Name: r.Ld})
	}

	for _, cu := range c.Units() {
		if cu.Unit.Class == cdfg.ClassMux {
			continue
		}
		stem := fmt.Sprintf("u_%s%d", cu.Unit.Class, cu.Unit.Index)
		u := Unit{Class: cu.Unit.Class, A: taken.claim(stem + "_a"), B: taken.claim(stem + "_b")}
		switch u.Class {
		case cdfg.ClassAdd, cdfg.ClassSub, cdfg.ClassMul:
			u.Y = taken.claim(stem + "_y")
		}
		u.Label = taken.claim(stem + "_ops")
		for _, ul := range cu.Loads {
			n := g.Node(ul.Op)
			ld := Load{Op: ul.Op, Go: taken.claim("go_" + Sanitize(n.Name)), En: enable(ul.Step, ul.Guards)}
			for _, a := range n.Args {
				ld.Args = append(ld.Args, src(a, ul.Step))
			}
			u.Loads = append(u.Loads, ld)
			gos = append(gos, Port{Name: ld.Go})
			r := &d.Regs[d.reg[ul.Op]]
			r.Unit = len(d.Units)
			if u.Y != "" {
				r.Result = u.Y
			}
		}
		d.Units = append(d.Units, u)
	}

	for _, s := range read {
		n := g.Node(s.Node)
		p := Port{Name: d.input[s.Node], Bus: true}
		if n.Kind != cdfg.KindInput {
			prefix := "cond_"
			if s.Next {
				prefix = "next_"
			}
			p = Port{Name: taken.claim(prefix + Sanitize(n.Name))}
			exports = append(exports, p)
		}
		d.Conds = append(d.Conds, Cond{Src: s, Port: p})
		d.cond[s] = p
		conds = append(conds, p)
	}

	d.DatapathPorts = slices.Concat([]Port{clk}, ins, lds, gos, flip(exports), outs)
	d.ControllerPorts = slices.Concat([]Port{clk, rst}, conds, flip(lds), flip(gos))
	d.TopPorts = slices.Concat([]Port{clk, rst}, ins, outs)
	for _, p := range slices.Concat(lds, gos, exports) {
		d.Wires = append(d.Wires, p.Name)
	}
	return d, nil
}

// flip returns the ports with their directions reversed: the other side
// of the same connections.
func flip(ports []Port) []Port {
	out := make([]Port, len(ports))
	for i, p := range ports {
		p.Out = !p.Out
		out[i] = p
	}
	return out
}

// Signal names the signal a read of s takes when s's node is a primary
// input or an operation: the input's port, or the operation's register
// or, for a result read, its Result.
func (d *Design) Signal(s Src) string {
	if i := d.reg[s.Node]; i >= 0 {
		if s.Next {
			return d.Regs[i].Result
		}
		return d.Regs[i].Name
	}
	return d.input[s.Node]
}

// Cond is the controller's port for a condition bit that an enable reads.
func (d *Design) Cond(s Src) Port { return d.cond[s] }

// OwnResult reports whether r drives a Result of its own rather than
// latching its unit's Y.
func (d *Design) OwnResult(r Reg) bool { return r.Unit < 0 || d.Units[r.Unit].Y == "" }
