package hdl

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/silage"
)

// Sanitize turns a node name into an identifier legal in VHDL and in
// Verilog: letters, digits and underscores are kept, any other rune
// becomes '_', a leading digit gets an 'n' before it, and the empty name
// becomes "sig".
func Sanitize(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('n')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "sig"
	}
	return b.String()
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

// Unit is one execution unit of the datapath.
type Unit struct {
	Class cdfg.Class
	// Name prefixes the unit's signals: operands Name_a and Name_b, a
	// mux's select Name_s, and the core's result Name_y.
	Name string
	// Ops are the operations whose operands the unit latches, in ID
	// order.
	Ops []cdfg.NodeID
}

// Design is a controller lowered to the structure that both printers
// emit: the names, the lists of operations, conditions and units, and
// the port lists of the three design units.
type Design struct {
	Ctrl  *ctrl.Controller
	Graph *cdfg.Graph
	Width int
	// Top names the top level; the datapath and the controller are
	// Top_datapath and Top_controller.
	Top string
	// Ops lists every operation in ID order. Each owns a value register
	// (Reg), a load enable (Ld) and a steering strobe (Go).
	Ops []cdfg.NodeID
	// Conds lists, in CondNodes order, the condition registers the
	// datapath exports: every condition node that is not a primary
	// input.
	Conds []cdfg.NodeID
	// Units lists the execution units in (class, index) order.
	Units []Unit
	// DatapathPorts, ControllerPorts and TopPorts are the port lists in
	// declaration order. The top level's two instances connect exactly
	// the datapath and the controller ports.
	DatapathPorts, ControllerPorts, TopPorts []Port
	// Wires are the top level's internal signals, all one bit: the load
	// enables, the steering strobes and the condition bits.
	Wires []string

	names []string // Sanitize of every node name, by ID
}

// Lower lowers a controller at the given word width, which must lie in
// [1, 64].
func Lower(c *ctrl.Controller, width int) (*Design, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("width %d outside [1,64]", width)
	}
	g := c.Graph
	d := &Design{Ctrl: c, Graph: g, Width: width, Top: Sanitize(g.Name)}
	d.names = make([]string, g.NumNodes())
	for _, n := range g.Nodes() {
		d.names[n.ID] = Sanitize(n.Name)
		if n.IsOp() {
			d.Ops = append(d.Ops, n.ID)
		}
	}
	for _, u := range c.Units() {
		ops := make([]cdfg.NodeID, len(u.Loads))
		for i, ul := range u.Loads {
			ops[i] = ul.Op
		}
		slices.Sort(ops)
		d.Units = append(d.Units, Unit{Class: u.Unit.Class, Name: unitName(u.Unit), Ops: ops})
	}

	clk, rst := Port{Name: "clk"}, Port{Name: "rst"}
	var ins, outs, lds, gos, conds, ctlConds []Port
	for _, id := range g.Inputs() {
		ins = append(ins, Port{Name: d.Name(id), Bus: true})
	}
	for _, id := range g.Outputs() {
		outs = append(outs, Port{Name: d.Output(id), Out: true, Bus: true})
	}
	for _, id := range d.Ops {
		lds = append(lds, Port{Name: d.Ld(id)})
		gos = append(gos, Port{Name: d.Go(id)})
	}
	for _, id := range c.CondNodes {
		p := d.Cond(id)
		ctlConds = append(ctlConds, p)
		if !p.Bus { // a primary input needs no condition register
			d.Conds = append(d.Conds, id)
			conds = append(conds, p)
		}
	}
	d.DatapathPorts = slices.Concat([]Port{clk}, ins, lds, gos, flip(conds), outs)
	d.ControllerPorts = slices.Concat([]Port{clk, rst}, ctlConds, flip(lds), flip(gos))
	d.TopPorts = slices.Concat([]Port{clk, rst}, ins, outs)
	for _, p := range slices.Concat(lds, gos, conds) {
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

func unitName(u alloc.Unit) string {
	return fmt.Sprintf("u_%s%d", Sanitize(u.Class.String()), u.Index)
}

// Name is node id's identifier.
func (d *Design) Name(id cdfg.NodeID) string { return d.names[id] }

// Reg names operation id's value register.
func (d *Design) Reg(id cdfg.NodeID) string { return "r_" + d.names[id] }

// Ld names the load enable of operation id's value register.
func (d *Design) Ld(id cdfg.NodeID) string { return "ld_" + d.names[id] }

// Go names the strobe that steers operation id's operands into its unit.
func (d *Design) Go(id cdfg.NodeID) string { return "go_" + d.names[id] }

// Cond is the condition signal of node id as the controller reads it: a
// primary input's own port, or the datapath's one-bit cond_ export.
func (d *Design) Cond(id cdfg.NodeID) Port {
	if d.Graph.Node(id).Kind == cdfg.KindInput {
		return Port{Name: d.names[id], Bus: true}
	}
	return Port{Name: "cond_" + d.names[id]}
}

// Output names the port of output node id.
func (d *Design) Output(id cdfg.NodeID) string {
	return Sanitize(silage.PortName(d.Graph.Node(id).Name))
}

// UnitOf names the unit that executes operation id.
func (d *Design) UnitOf(id cdfg.NodeID) string { return unitName(d.Ctrl.Binding.UnitOf[id]) }
