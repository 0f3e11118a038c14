package vhdl

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/hdl"
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

// expr is the VHDL expression a read of s takes.
func (p *printer) expr(s hdl.Src) string {
	n := p.Graph.Node(s.Node)
	switch n.Kind {
	case cdfg.KindConst:
		v := uint64(n.Value) & ((1 << uint(p.Width)) - 1)
		if v > math.MaxInt32 {
			// to_unsigned takes a natural, which VHDL guarantees only
			// up to 2^31-1.
			return fmt.Sprintf(`unsigned'(B"%0*b")`, p.Width, v)
		}
		return fmt.Sprintf("to_unsigned(%d, %d)", v, p.Width)
	case cdfg.KindShl:
		return fmt.Sprintf("shift_left(%s, %d)", p.expr(hdl.Src{Node: n.Args[0], Next: s.Next}), n.Shift)
	case cdfg.KindShr:
		return fmt.Sprintf("shift_right(%s, %d)", p.expr(hdl.Src{Node: n.Args[0], Next: s.Next}), n.Shift)
	}
	return p.Signal(s)
}

func (p *printer) datapath() {
	b := &p.b
	p.entity(p.Datapath, p.DatapathPorts)
	fmt.Fprintf(b, "architecture rtl of %s is\n", p.Datapath)
	for _, r := range p.Regs {
		fmt.Fprintf(b, "  signal %s : %s := (others => '0');\n", r.Name, p.bus)
	}
	for _, r := range p.Regs {
		if p.OwnResult(r) {
			fmt.Fprintf(b, "  signal %s : %s;\n", r.Result, p.bus)
		}
	}
	for _, u := range p.Units {
		fmt.Fprintf(b, "  signal %s, %s : %s := (others => '0');\n", u.A, u.B, p.bus)
		if u.Y != "" {
			fmt.Fprintf(b, "  signal %s : %s;\n", u.Y, p.bus)
		}
	}
	b.WriteString("begin\n")

	// Combinational unit cores.
	for _, u := range p.Units {
		switch u.Class {
		case cdfg.ClassAdd:
			fmt.Fprintf(b, "  %s <= %s + %s;\n", u.Y, u.A, u.B)
		case cdfg.ClassSub:
			fmt.Fprintf(b, "  %s <= %s - %s;\n", u.Y, u.A, u.B)
		case cdfg.ClassMul:
			fmt.Fprintf(b, "  %s <= resize(%s * %s, %d);\n", u.Y, u.A, u.B, p.Width)
		}
	}
	// Results of the registers that no core drives.
	for _, r := range p.Regs {
		if !p.OwnResult(r) {
			continue
		}
		if r.Mux != nil {
			fmt.Fprintf(b, "  %s <= %s when %s(0) = '1' else %s;\n", r.Result,
				p.expr(r.Mux[cdfg.MuxTrue]), p.expr(r.Mux[cdfg.MuxSel]), p.expr(r.Mux[cdfg.MuxFalse]))
			continue
		}
		fmt.Fprintf(b, "  %s <= to_unsigned(1, %d) when %s else to_unsigned(0, %d);\n",
			r.Result, p.Width, p.flag(r.Op, p.Units[r.Unit]), p.Width)
	}

	// Operand registers with steering: a clocked process per unit.
	for _, u := range p.Units {
		p.unitProcess(u)
	}

	// Value registers.
	b.WriteString("  regs : process (clk)\n  begin\n    if rising_edge(clk) then\n")
	for _, r := range p.Regs {
		fmt.Fprintf(b, "      if %s = '1' then %s <= %s; end if;\n", r.Ld, r.Name, r.Result)
	}
	b.WriteString("    end if;\n  end process;\n")

	// Condition and output fan-out.
	for _, c := range p.Conds {
		if !c.Port.Bus {
			fmt.Fprintf(b, "  %s <= %s(0);\n", c.Port.Name, p.expr(c.Src))
		}
	}
	for _, o := range p.Outputs {
		fmt.Fprintf(b, "  %s <= %s;\n", o.Name, p.expr(o.Src))
	}
	b.WriteString("end architecture;\n\n")
}

// flag is the condition under which a comparison or logic operation's
// result is 1.
func (p *printer) flag(op cdfg.NodeID, u hdl.Unit) string {
	k := p.Graph.Node(op).Kind
	switch k {
	case cdfg.KindAnd:
		return fmt.Sprintf("(%s(0) and %s(0)) = '1'", u.A, u.B)
	case cdfg.KindOr:
		return fmt.Sprintf("(%s(0) or %s(0)) = '1'", u.A, u.B)
	case cdfg.KindNot:
		return fmt.Sprintf("%s(0) = '0'", u.A)
	}
	rel := map[cdfg.Kind]string{
		cdfg.KindLt: "<", cdfg.KindGt: ">", cdfg.KindLe: "<=",
		cdfg.KindGe: ">=", cdfg.KindEq: "=", cdfg.KindNe: "/=",
	}[k]
	return fmt.Sprintf("%s %s %s", u.A, rel, u.B)
}

// unitProcess writes the operand-register process of one unit: when a
// load's enable is high, its operands are latched.
func (p *printer) unitProcess(u hdl.Unit) {
	b := &p.b
	fmt.Fprintf(b, "  %s : process (clk)\n  begin\n    if rising_edge(clk) then\n", u.Label)
	for _, ld := range u.Loads {
		bArg := "(others => '0')"
		if len(ld.Args) > 1 {
			bArg = p.expr(ld.Args[1])
		}
		fmt.Fprintf(b, "      if %s = '1' then\n", ld.Go)
		fmt.Fprintf(b, "        %s <= %s;\n", u.A, p.expr(ld.Args[0]))
		fmt.Fprintf(b, "        %s <= %s;\n", u.B, bArg)
		b.WriteString("      end if;\n")
	}
	b.WriteString("    end if;\n  end process;\n")
}

// enable renders the condition under which a load enable is high: its
// state, and in the power managed controller its guard conjunction.
func (p *printer) enable(e hdl.Enable) string {
	terms := []string{fmt.Sprintf("state = %d", e.State)}
	for _, bit := range e.Bits {
		src := p.Cond(bit.Src)
		if src.Bus {
			src.Name += "(0)"
		}
		val := "'0'"
		if bit.WhenTrue {
			val = "'1'"
		}
		terms = append(terms, src.Name+" = "+val)
	}
	return strings.Join(terms, " and ")
}

func (p *printer) controller() {
	b := &p.b
	p.entity(p.FSM, p.ControllerPorts)
	fmt.Fprintf(b, "architecture fsm of %s is\n", p.FSM)
	fmt.Fprintf(b, "  signal state : natural range 0 to %d := 0;\n", p.Ctrl.Steps)
	b.WriteString("begin\n")
	b.WriteString("  advance : process (clk)\n  begin\n    if rising_edge(clk) then\n")
	b.WriteString("      if rst = '1' then\n        state <= 0;\n")
	fmt.Fprintf(b, "      elsif state = %d then\n        state <= 0;\n", p.Ctrl.Steps)
	b.WriteString("      else\n        state <= state + 1;\n      end if;\n")
	b.WriteString("    end if;\n  end process;\n\n")

	// Value-register load enables, then the units' operand loads.
	for _, r := range p.Regs {
		fmt.Fprintf(b, "  %s <= '1' when %s else '0';\n", r.Ld, p.enable(r.En))
	}
	for _, u := range p.Units {
		for _, ld := range u.Loads {
			fmt.Fprintf(b, "  %s <= '1' when %s else '0';\n", ld.Go, p.enable(ld.En))
		}
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
	p.instance("dp", p.Datapath, p.DatapathPorts)
	p.instance("fsm", p.FSM, p.ControllerPorts)
	b.WriteString("end architecture;\n")
}
