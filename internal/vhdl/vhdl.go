package vhdl

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/hdl"
	"repro/internal/sim"
)

// Generate emits the full VHDL description (datapath, controller, top) for
// the controller's design at the given width.
func Generate(c *ctrl.Controller, width int) (string, error) {
	d, err := hdl.Lower(c, width)
	if err != nil {
		return "", fmt.Errorf("vhdl: %w", err)
	}
	p := &printer{Design: d, bus: fmt.Sprintf("unsigned(%d downto 0)", width-1)}
	variant := "traditional"
	if c.PM {
		variant = "power managed"
	}
	fmt.Fprintf(&p.b, "-- Generated by pmsynth: design %q, %d control steps, %s controller.\n",
		d.Graph.Name, c.Steps, variant)
	p.b.WriteString("-- Scheduling follows Monteiro et al., DAC 1996.\n\n")
	p.datapath()
	p.controller()
	p.top()
	return p.b.String(), nil
}

type printer struct {
	*hdl.Design
	b   strings.Builder
	bus string // the VHDL type of a datapath word
}

const header = "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"

// entity prints an entity declaration with its port clause.
func (p *printer) entity(name string, ports []hdl.Port) {
	fmt.Fprintf(&p.b, "%sentity %s is\n  port (\n", header, name)
	for i, pt := range ports {
		dir, typ := "in", "std_logic"
		if pt.Out {
			dir = "out"
		}
		if pt.Bus {
			typ = p.bus
		}
		fmt.Fprintf(&p.b, "    %s : %s %s%s\n", pt.Name, dir, typ, sep(i, ports, ";"))
	}
	p.b.WriteString("  );\nend entity;\n\n")
}

// instance prints a component instantiation whose port map connects every
// port to the signal of the same name.
func (p *printer) instance(label, entity string, ports []hdl.Port) {
	fmt.Fprintf(&p.b, "  %s : entity work.%s\n    port map (\n", label, entity)
	for i, pt := range ports {
		fmt.Fprintf(&p.b, "      %s => %s%s\n", pt.Name, pt.Name, sep(i, ports, ","))
	}
	p.b.WriteString("    );\n")
}

// sep is the separator after the i-th port: s, or nothing after the last.
func sep(i int, ports []hdl.Port, s string) string {
	if i == len(ports)-1 {
		return ""
	}
	return s
}

// valueExpr emits the VHDL expression for a node's value as read by a
// consumer (register output, input port, constant, or shifted wiring).
func (p *printer) valueExpr(id cdfg.NodeID) string {
	n := p.Graph.Node(id)
	switch n.Kind {
	case cdfg.KindInput:
		return p.Name(id)
	case cdfg.KindConst:
		return fmt.Sprintf("to_unsigned(%d, %d)", uint64(n.Value)&((1<<uint(p.Width))-1), p.Width)
	case cdfg.KindShl:
		return fmt.Sprintf("shift_left(%s, %d)", p.valueExpr(n.Args[0]), n.Shift)
	case cdfg.KindShr:
		return fmt.Sprintf("shift_right(%s, %d)", p.valueExpr(n.Args[0]), n.Shift)
	default:
		return p.Reg(id)
	}
}

func (p *printer) datapath() {
	b := &p.b
	p.entity(p.Top+"_datapath", p.DatapathPorts)
	fmt.Fprintf(b, "architecture rtl of %s_datapath is\n", p.Top)
	for _, id := range p.Ops {
		fmt.Fprintf(b, "  signal %s : %s := (others => '0');\n", p.Reg(id), p.bus)
	}
	for _, u := range p.Units {
		fmt.Fprintf(b, "  signal %s_a, %s_b : %s := (others => '0');\n", u.Name, u.Name, p.bus)
		if u.Class == cdfg.ClassMux {
			fmt.Fprintf(b, "  signal %s_s : std_logic := '0';\n", u.Name)
		}
		fmt.Fprintf(b, "  signal %s_y : %s;\n", u.Name, p.bus)
	}
	b.WriteString("begin\n")

	// Combinational unit cores.
	for _, u := range p.Units {
		un := u.Name
		switch u.Class {
		case cdfg.ClassAdd:
			fmt.Fprintf(b, "  %s_y <= %s_a + %s_b;\n", un, un, un)
		case cdfg.ClassSub:
			fmt.Fprintf(b, "  %s_y <= %s_a - %s_b;\n", un, un, un)
		case cdfg.ClassMul:
			fmt.Fprintf(b, "  %s_y <= resize(%s_a * %s_b, %d);\n", un, un, un, p.Width)
		case cdfg.ClassMux:
			fmt.Fprintf(b, "  %s_y <= %s_a when %s_s = '1' else %s_b;\n", un, un, un, un)
		case cdfg.ClassComp, cdfg.ClassLogic:
			// Per-op flag results are emitted at the registers.
		}
	}

	// Operand registers with steering: a clocked process per unit.
	for _, u := range p.Units {
		p.unitProcess(u)
	}

	// Value registers.
	b.WriteString("  regs : process (clk)\n  begin\n    if rising_edge(clk) then\n")
	for _, id := range p.Ops {
		fmt.Fprintf(b, "      if %s = '1' then %s <= %s; end if;\n", p.Ld(id), p.Reg(id), p.resultExpr(id))
	}
	b.WriteString("    end if;\n  end process;\n")

	// Condition and output fan-out.
	for _, id := range p.Conds {
		fmt.Fprintf(b, "  %s <= %s(0);\n", p.Cond(id).Name, p.Reg(id))
	}
	for _, id := range p.Graph.Outputs() {
		fmt.Fprintf(b, "  %s <= %s;\n", p.Output(id), p.valueExpr(p.Graph.Node(id).Args[0]))
	}
	b.WriteString("end architecture;\n\n")
}

// resultExpr gives the expression latched into an op's value register.
func (p *printer) resultExpr(id cdfg.NodeID) string {
	n := p.Graph.Node(id)
	un := p.UnitOf(id)
	pad := func(flag string) string {
		return fmt.Sprintf("(%d downto 1 => '0') & %s", p.Width-1, flag)
	}
	switch {
	case n.Kind.IsComparison():
		op := map[cdfg.Kind]string{
			cdfg.KindLt: "<", cdfg.KindGt: ">", cdfg.KindLe: "<=",
			cdfg.KindGe: ">=", cdfg.KindEq: "=", cdfg.KindNe: "/=",
		}[n.Kind]
		return pad(fmt.Sprintf("'1' when %s_a %s %s_b else '0'", un, op, un))
	case n.Kind == cdfg.KindAnd:
		return pad(fmt.Sprintf("%s_a(0) and %s_b(0)", un, un))
	case n.Kind == cdfg.KindOr:
		return pad(fmt.Sprintf("%s_a(0) or %s_b(0)", un, un))
	case n.Kind == cdfg.KindNot:
		return pad(fmt.Sprintf("not %s_a(0)", un))
	default:
		return un + "_y"
	}
}

// unitProcess writes the operand-register process of one unit: when an
// op's steering strobe is high, its operands are latched.
func (p *printer) unitProcess(u hdl.Unit) {
	b, un := &p.b, u.Name
	fmt.Fprintf(b, "  %s_ops : process (clk)\n  begin\n    if rising_edge(clk) then\n", un)
	for _, op := range u.Ops {
		n := p.Graph.Node(op)
		fmt.Fprintf(b, "      if %s = '1' then\n", p.Go(op))
		if n.Kind == cdfg.KindMux {
			fmt.Fprintf(b, "        %s_s <= %s(0);\n", un, p.valueExpr(n.Args[cdfg.MuxSel]))
			fmt.Fprintf(b, "        %s_a <= %s;\n", un, p.valueExpr(n.Args[cdfg.MuxTrue]))
			fmt.Fprintf(b, "        %s_b <= %s;\n", un, p.valueExpr(n.Args[cdfg.MuxFalse]))
		} else {
			fmt.Fprintf(b, "        %s_a <= %s;\n", un, p.valueExpr(n.Args[0]))
			if len(n.Args) > 1 {
				fmt.Fprintf(b, "        %s_b <= %s;\n", un, p.valueExpr(n.Args[1]))
			}
		}
		b.WriteString("      end if;\n")
	}
	b.WriteString("    end if;\n  end process;\n")
}

// enable renders the condition under which a load enable is high: its
// state, and in the power managed controller its guard conjunction.
func (p *printer) enable(step int, guards []sim.Guard) string {
	terms := []string{fmt.Sprintf("state = %d", step)}
	for _, gd := range guards {
		src := p.Cond(gd.Sel)
		if src.Bus {
			src.Name += "(0)"
		}
		bit := "'0'"
		if gd.WhenTrue {
			bit = "'1'"
		}
		terms = append(terms, src.Name+" = "+bit)
	}
	return strings.Join(terms, " and ")
}

func (p *printer) controller() {
	b, c := &p.b, p.Ctrl
	p.entity(p.Top+"_controller", p.ControllerPorts)
	fmt.Fprintf(b, "architecture fsm of %s_controller is\n", p.Top)
	fmt.Fprintf(b, "  signal state : natural range 0 to %d := 0;\n", c.Steps)
	b.WriteString("begin\n")
	b.WriteString("  advance : process (clk)\n  begin\n    if rising_edge(clk) then\n")
	b.WriteString("      if rst = '1' then\n        state <= 0;\n")
	fmt.Fprintf(b, "      elsif state = %d then\n        state <= 0;\n", c.Steps)
	b.WriteString("      else\n        state <= state + 1;\n      end if;\n")
	b.WriteString("    end if;\n  end process;\n\n")

	// Value-register load enables.
	for _, ld := range c.Loads {
		if ld.Step == 0 {
			continue // inputs are environment-held
		}
		fmt.Fprintf(b, "  %s <= '1' when %s else '0';\n", p.Ld(ld.Node), p.enable(ld.Step, ld.Guards))
	}
	// Unit steering strobes.
	for _, ul := range c.UnitLoads {
		fmt.Fprintf(b, "  %s <= '1' when %s else '0';\n", p.Go(ul.Op), p.enable(ul.Step, ul.Guards))
	}
	b.WriteString("end architecture;\n\n")
}

func (p *printer) top() {
	b := &p.b
	p.entity(p.Top, p.TopPorts)
	fmt.Fprintf(b, "architecture structure of %s is\n", p.Top)
	for _, w := range p.Wires {
		fmt.Fprintf(b, "  signal %s : std_logic;\n", w)
	}
	b.WriteString("begin\n")
	p.instance("dp", p.Top+"_datapath", p.DatapathPorts)
	p.instance("fsm", p.Top+"_controller", p.ControllerPorts)
	b.WriteString("end architecture;\n")
}
