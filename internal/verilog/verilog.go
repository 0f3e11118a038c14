package verilog

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/hdl"
	"repro/internal/sim"
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

func (p *printer) valueExpr(id cdfg.NodeID) string {
	n := p.Graph.Node(id)
	switch n.Kind {
	case cdfg.KindInput:
		return p.Name(id)
	case cdfg.KindConst:
		return fmt.Sprintf("%d'd%d", p.Width, uint64(n.Value)&((1<<uint(p.Width))-1))
	case cdfg.KindShl:
		return fmt.Sprintf("(%s << %d)", p.valueExpr(n.Args[0]), n.Shift)
	case cdfg.KindShr:
		return fmt.Sprintf("(%s >> %d)", p.valueExpr(n.Args[0]), n.Shift)
	default:
		return p.Reg(id)
	}
}

func (p *printer) resultExpr(id cdfg.NodeID) string {
	n := p.Graph.Node(id)
	un := p.UnitOf(id)
	bool2bus := func(expr string) string {
		return fmt.Sprintf("{%d'd0, %s}", p.Width-1, expr)
	}
	switch {
	case n.Kind.IsComparison():
		op := map[cdfg.Kind]string{
			cdfg.KindLt: "<", cdfg.KindGt: ">", cdfg.KindLe: "<=",
			cdfg.KindGe: ">=", cdfg.KindEq: "==", cdfg.KindNe: "!=",
		}[n.Kind]
		return bool2bus(fmt.Sprintf("%s_a %s %s_b", un, op, un))
	case n.Kind == cdfg.KindAnd:
		return bool2bus(fmt.Sprintf("%s_a[0] & %s_b[0]", un, un))
	case n.Kind == cdfg.KindOr:
		return bool2bus(fmt.Sprintf("%s_a[0] | %s_b[0]", un, un))
	case n.Kind == cdfg.KindNot:
		return bool2bus(fmt.Sprintf("~%s_a[0]", un))
	default:
		return un + "_y"
	}
}

func (p *printer) datapath() {
	b := &p.b
	p.module(p.Top+"_datapath", p.DatapathPorts)
	for _, id := range p.Ops {
		fmt.Fprintf(b, "  reg %s %s = 0;\n", p.rng, p.Reg(id))
	}
	for _, u := range p.Units {
		fmt.Fprintf(b, "  reg %s %s_a = 0, %s_b = 0;\n", p.rng, u.Name, u.Name)
		if u.Class == cdfg.ClassMux {
			fmt.Fprintf(b, "  reg %s_s = 0;\n", u.Name)
		}
		fmt.Fprintf(b, "  wire %s %s_y;\n", p.rng, u.Name)
	}
	for _, u := range p.Units {
		un := u.Name
		switch u.Class {
		case cdfg.ClassAdd:
			fmt.Fprintf(b, "  assign %s_y = %s_a + %s_b;\n", un, un, un)
		case cdfg.ClassSub:
			fmt.Fprintf(b, "  assign %s_y = %s_a - %s_b;\n", un, un, un)
		case cdfg.ClassMul:
			fmt.Fprintf(b, "  assign %s_y = %s_a * %s_b;\n", un, un, un)
		case cdfg.ClassMux:
			fmt.Fprintf(b, "  assign %s_y = %s_s ? %s_a : %s_b;\n", un, un, un, un)
		default:
			fmt.Fprintf(b, "  assign %s_y = {%d{1'b0}};\n", un, p.Width)
		}
	}

	// Operand steering processes.
	for _, u := range p.Units {
		un := u.Name
		b.WriteString("  always @(posedge clk) begin\n")
		for _, op := range u.Ops {
			n := p.Graph.Node(op)
			fmt.Fprintf(b, "    if (%s) begin\n", p.Go(op))
			if n.Kind == cdfg.KindMux {
				fmt.Fprintf(b, "      %s_s <= %s[0];\n", un, p.valueExpr(n.Args[cdfg.MuxSel]))
				fmt.Fprintf(b, "      %s_a <= %s;\n", un, p.valueExpr(n.Args[cdfg.MuxTrue]))
				fmt.Fprintf(b, "      %s_b <= %s;\n", un, p.valueExpr(n.Args[cdfg.MuxFalse]))
			} else {
				fmt.Fprintf(b, "      %s_a <= %s;\n", un, p.valueExpr(n.Args[0]))
				if len(n.Args) > 1 {
					fmt.Fprintf(b, "      %s_b <= %s;\n", un, p.valueExpr(n.Args[1]))
				}
			}
			b.WriteString("    end\n")
		}
		b.WriteString("  end\n")
	}

	// Value registers.
	b.WriteString("  always @(posedge clk) begin\n")
	for _, id := range p.Ops {
		fmt.Fprintf(b, "    if (%s) %s <= %s;\n", p.Ld(id), p.Reg(id), p.resultExpr(id))
	}
	b.WriteString("  end\n")

	for _, id := range p.Conds {
		fmt.Fprintf(b, "  assign %s = %s[0];\n", p.Cond(id).Name, p.Reg(id))
	}
	for _, id := range p.Graph.Outputs() {
		fmt.Fprintf(b, "  assign %s = %s;\n", p.Output(id), p.valueExpr(p.Graph.Node(id).Args[0]))
	}
	b.WriteString("endmodule\n\n")
}

// enable renders the condition under which a load enable is high: its
// state, and in the power managed controller its guard conjunction.
func (p *printer) enable(step int, guards []sim.Guard) string {
	terms := []string{fmt.Sprintf("state == %d", step)}
	for _, gd := range guards {
		src := p.Cond(gd.Sel)
		if src.Bus {
			src.Name += "[0]"
		}
		if !gd.WhenTrue {
			src.Name = "~" + src.Name
		}
		terms = append(terms, src.Name)
	}
	return strings.Join(terms, " & ")
}

func (p *printer) controller() {
	b, c := &p.b, p.Ctrl
	p.module(p.Top+"_controller", p.ControllerPorts)
	bits := 1
	for 1<<uint(bits) <= c.Steps {
		bits++
	}
	fmt.Fprintf(b, "  reg [%d:0] state = 0;\n", bits-1)
	b.WriteString("  always @(posedge clk) begin\n")
	fmt.Fprintf(b, "    if (rst) state <= 0;\n    else if (state == %d) state <= 0;\n    else state <= state + 1;\n", c.Steps)
	b.WriteString("  end\n")
	for _, ld := range c.Loads {
		if ld.Step == 0 {
			continue
		}
		fmt.Fprintf(b, "  assign %s = (%s);\n", p.Ld(ld.Node), p.enable(ld.Step, ld.Guards))
	}
	for _, ul := range c.UnitLoads {
		fmt.Fprintf(b, "  assign %s = (%s);\n", p.Go(ul.Op), p.enable(ul.Step, ul.Guards))
	}
	b.WriteString("endmodule\n\n")
}

func (p *printer) top() {
	b := &p.b
	p.module(p.Top, p.TopPorts)
	for _, w := range p.Wires {
		fmt.Fprintf(b, "  wire %s;\n", w)
	}
	p.instance(p.Top+"_datapath", "dp", p.DatapathPorts)
	p.instance(p.Top+"_controller", "fsm", p.ControllerPorts)
	b.WriteString("endmodule\n")
}
