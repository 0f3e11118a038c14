package verilog

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/hdl"
)

// Generate emits the complete Verilog description.
func Generate(c *ctrl.Controller, width int) (string, error) {
	d, err := hdl.Lower(c, width)
	if err != nil {
		return "", fmt.Errorf("verilog: %w", err)
	}
	p := &printer{Design: d, rng: fmt.Sprintf("[%d:0]", width-1)}
	variant := "traditional"
	if c.PM {
		variant = "power managed"
	}
	fmt.Fprintf(&p.b, "// Generated by pmsynth: design %q, %d control steps, %s controller.\n",
		d.Graph.Name, c.Steps, variant)
	p.b.WriteString("// Scheduling follows Monteiro et al., DAC 1996.\n\n")
	p.datapath()
	p.controller()
	p.top()
	return p.b.String(), nil
}

type printer struct {
	*hdl.Design
	b   strings.Builder
	rng string // the range of a datapath word
}

// module prints a module header with its port list.
func (p *printer) module(name string, ports []hdl.Port) {
	fmt.Fprintf(&p.b, "module %s (\n", name)
	for i, pt := range ports {
		dir, rng := "input", ""
		if pt.Out {
			dir = "output"
		}
		if pt.Bus {
			rng = p.rng + " "
		}
		fmt.Fprintf(&p.b, "  %s wire %s%s%s\n", dir, rng, pt.Name, sep(i, ports))
	}
	p.b.WriteString(");\n")
}

// instance prints a module instantiation that connects every port to the
// signal of the same name.
func (p *printer) instance(module, label string, ports []hdl.Port) {
	fmt.Fprintf(&p.b, "  %s %s (\n", module, label)
	for i, pt := range ports {
		fmt.Fprintf(&p.b, "    .%s(%s)%s\n", pt.Name, pt.Name, sep(i, ports))
	}
	p.b.WriteString("  );\n")
}

// sep is the separator after the i-th port: a comma, or nothing after
// the last.
func sep(i int, ports []hdl.Port) string {
	if i == len(ports)-1 {
		return ""
	}
	return ","
}

// expr is the Verilog expression a read of s takes.
func (p *printer) expr(s hdl.Src) string {
	n := p.Graph.Node(s.Node)
	switch n.Kind {
	case cdfg.KindConst:
		return fmt.Sprintf("%d'd%d", p.Width, uint64(n.Value)&((1<<uint(p.Width))-1))
	case cdfg.KindShl:
		return fmt.Sprintf("(%s << %d)", p.expr(hdl.Src{Node: n.Args[0], Next: s.Next}), n.Shift)
	case cdfg.KindShr:
		return fmt.Sprintf("(%s >> %d)", p.expr(hdl.Src{Node: n.Args[0], Next: s.Next}), n.Shift)
	}
	return p.Signal(s)
}

// flag is the one-bit expression of a comparison or logic operation's
// result.
func (p *printer) flag(op cdfg.NodeID, u hdl.Unit) string {
	k := p.Graph.Node(op).Kind
	switch k {
	case cdfg.KindAnd:
		return fmt.Sprintf("%s[0] & %s[0]", u.A, u.B)
	case cdfg.KindOr:
		return fmt.Sprintf("%s[0] | %s[0]", u.A, u.B)
	case cdfg.KindNot:
		return fmt.Sprintf("~%s[0]", u.A)
	}
	rel := map[cdfg.Kind]string{
		cdfg.KindLt: "<", cdfg.KindGt: ">", cdfg.KindLe: "<=",
		cdfg.KindGe: ">=", cdfg.KindEq: "==", cdfg.KindNe: "!=",
	}[k]
	return fmt.Sprintf("%s %s %s", u.A, rel, u.B)
}

func (p *printer) datapath() {
	b := &p.b
	p.module(p.Datapath, p.DatapathPorts)
	for _, r := range p.Regs {
		fmt.Fprintf(b, "  reg %s %s = 0;\n", p.rng, r.Name)
	}
	for _, r := range p.Regs {
		if p.OwnResult(r) {
			fmt.Fprintf(b, "  wire %s %s;\n", p.rng, r.Result)
		}
	}
	for _, u := range p.Units {
		fmt.Fprintf(b, "  reg %s %s = 0, %s = 0;\n", p.rng, u.A, u.B)
		if u.Y != "" {
			fmt.Fprintf(b, "  wire %s %s;\n", p.rng, u.Y)
		}
	}
	for _, u := range p.Units {
		switch u.Class {
		case cdfg.ClassAdd:
			fmt.Fprintf(b, "  assign %s = %s + %s;\n", u.Y, u.A, u.B)
		case cdfg.ClassSub:
			fmt.Fprintf(b, "  assign %s = %s - %s;\n", u.Y, u.A, u.B)
		case cdfg.ClassMul:
			fmt.Fprintf(b, "  assign %s = %s * %s;\n", u.Y, u.A, u.B)
		}
	}
	for _, r := range p.Regs {
		if !p.OwnResult(r) {
			continue
		}
		if r.Mux != nil {
			fmt.Fprintf(b, "  assign %s = %s[0] ? %s : %s;\n", r.Result,
				p.expr(r.Mux[cdfg.MuxSel]), p.expr(r.Mux[cdfg.MuxTrue]), p.expr(r.Mux[cdfg.MuxFalse]))
			continue
		}
		fmt.Fprintf(b, "  assign %s = (%s) ? %d'd1 : %d'd0;\n", r.Result, p.flag(r.Op, p.Units[r.Unit]), p.Width, p.Width)
	}

	// Operand steering processes.
	for _, u := range p.Units {
		b.WriteString("  always @(posedge clk) begin\n")
		for _, ld := range u.Loads {
			bArg := fmt.Sprintf("%d'd0", p.Width)
			if len(ld.Args) > 1 {
				bArg = p.expr(ld.Args[1])
			}
			fmt.Fprintf(b, "    if (%s) begin\n", ld.Go)
			fmt.Fprintf(b, "      %s <= %s;\n", u.A, p.expr(ld.Args[0]))
			fmt.Fprintf(b, "      %s <= %s;\n", u.B, bArg)
			b.WriteString("    end\n")
		}
		b.WriteString("  end\n")
	}

	// Value registers.
	b.WriteString("  always @(posedge clk) begin\n")
	for _, r := range p.Regs {
		fmt.Fprintf(b, "    if (%s) %s <= %s;\n", r.Ld, r.Name, r.Result)
	}
	b.WriteString("  end\n")

	for _, c := range p.Conds {
		if !c.Port.Bus {
			fmt.Fprintf(b, "  assign %s = %s[0];\n", c.Port.Name, p.expr(c.Src))
		}
	}
	for _, o := range p.Outputs {
		fmt.Fprintf(b, "  assign %s = %s;\n", o.Name, p.expr(o.Src))
	}
	b.WriteString("endmodule\n\n")
}

// enable renders the condition under which a load enable is high: its
// state, and in the power managed controller its guard conjunction.
func (p *printer) enable(e hdl.Enable) string {
	terms := []string{fmt.Sprintf("state == %d", e.State)}
	for _, bit := range e.Bits {
		src := p.Cond(bit.Src)
		if src.Bus {
			src.Name += "[0]"
		}
		if !bit.WhenTrue {
			src.Name = "~" + src.Name
		}
		terms = append(terms, src.Name)
	}
	return strings.Join(terms, " & ")
}

func (p *printer) controller() {
	b := &p.b
	p.module(p.FSM, p.ControllerPorts)
	steps := p.Ctrl.Steps
	bits := 1
	for 1<<uint(bits) <= steps {
		bits++
	}
	fmt.Fprintf(b, "  reg [%d:0] state = 0;\n", bits-1)
	b.WriteString("  always @(posedge clk) begin\n")
	fmt.Fprintf(b, "    if (rst) state <= 0;\n    else if (state == %d) state <= 0;\n    else state <= state + 1;\n", steps)
	b.WriteString("  end\n")
	for _, r := range p.Regs {
		fmt.Fprintf(b, "  assign %s = (%s);\n", r.Ld, p.enable(r.En))
	}
	for _, u := range p.Units {
		for _, ld := range u.Loads {
			fmt.Fprintf(b, "  assign %s = (%s);\n", ld.Go, p.enable(ld.En))
		}
	}
	b.WriteString("endmodule\n\n")
}

func (p *printer) top() {
	b := &p.b
	p.module(p.Top, p.TopPorts)
	for _, w := range p.Wires {
		fmt.Fprintf(b, "  wire %s;\n", w)
	}
	p.instance(p.Datapath, "dp", p.DatapathPorts)
	p.instance(p.FSM, "fsm", p.ControllerPorts)
	b.WriteString("endmodule\n")
}
