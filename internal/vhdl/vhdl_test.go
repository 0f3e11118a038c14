package vhdl

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/hdl"
	"repro/internal/power"
	"repro/internal/silage"
)

const absDiffSrc = `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

func generate(t *testing.T, src string, budget int, pm bool) string {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	c, err := ctrl.Build(r.Schedule, b, r.Guards, pm)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Generate(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestGenerateContainsEntities(t *testing.T) {
	text := generate(t, absDiffSrc, 3, true)
	for _, want := range []string{
		"entity absdiff_datapath is",
		"entity absdiff_controller is",
		"entity absdiff is",
		"architecture rtl of absdiff_datapath",
		"architecture fsm of absdiff_controller",
		"architecture structure of absdiff",
		"use ieee.numeric_std.all;",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestPMControllerHasGuards(t *testing.T) {
	pm := generate(t, absDiffSrc, 3, true)
	orig := generate(t, absDiffSrc, 3, false)
	// The PM controller qualifies the subtraction loads with the
	// comparator's condition bit.
	if !strings.Contains(pm, "cond_g = '1'") || !strings.Contains(pm, "cond_g = '0'") {
		t.Error("PM controller lacks condition-qualified enables")
	}
	// The subtractions' operands load in the comparison's own step, so
	// their strobes read its result, not its register.
	if !strings.Contains(pm, "state = 1 and next_g = '1'") || !strings.Contains(pm, "state = 1 and next_g = '0'") {
		t.Error("PM steering strobes do not read the comparison's result")
	}
	// The datapath steers the inlined multiplexor with the comparison's
	// register itself, so the baseline controller reads no condition.
	if strings.Contains(orig, "cond_g") || strings.Contains(orig, "next_g") {
		t.Error("baseline controller reads a condition")
	}
	for _, text := range []string{pm, orig} {
		if !strings.Contains(text, "y_out <= r_d1 when r_g(0) = '1' else r_d2;") {
			t.Error("multiplexor not inlined in front of its register")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, absDiffSrc, 3, true)
	b := generate(t, absDiffSrc, 3, true)
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestBalancedConstructs(t *testing.T) {
	text := generate(t, absDiffSrc, 3, true)
	pairs := [][2]string{
		{"\nentity ", "end entity;"},
		{"process (clk)", "end process;"},
		{"\narchitecture ", "end architecture;"},
	}
	for _, p := range pairs {
		open := strings.Count(text, p[0])
		close := strings.Count(text, p[1])
		if open != close {
			t.Errorf("%q count %d != %q count %d", p[0], open, p[1], close)
		}
	}
	// No unsanitized characters from internal names.
	if strings.Contains(text, "out:") || strings.Contains(text, "c:") {
		t.Error("internal name prefixes leaked into VHDL")
	}
}

func TestGenerateAllBenchmarks(t *testing.T) {
	for _, c := range bench.All() {
		budget := c.Budgets[0]
		r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		b := alloc.Bind(r.Schedule, r.Guards)
		ctlr, err := ctrl.Build(r.Schedule, b, r.Guards, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		text, err := Generate(ctlr, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !strings.Contains(text, "entity "+c.Name+" is") {
			t.Errorf("%s: missing top entity", c.Name)
		}
		// Every output port appears in the top entity.
		for _, id := range c.Graph().Outputs() {
			port := silage.PortName(c.Graph().Node(id).Name)
			if !strings.Contains(text, port+" : out") {
				t.Errorf("%s: missing output port %s", c.Name, port)
			}
		}
	}
}

func TestGenerateWidthValidation(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	c, err := ctrl.Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 65} {
		want := fmt.Sprintf("vhdl: width %d outside [1,64]", w)
		if _, err := Generate(c, w); err == nil || err.Error() != want {
			t.Errorf("width %d: err = %v, want %q", w, err, want)
		}
	}
}

// TestSanitize pins the identifier rule the printer names every port,
// register and signal by: each name must come out a legal VHDL
// identifier, a letter first, no '_' at either end and never two in a row.
func TestSanitize(t *testing.T) {
	legal := regexp.MustCompile(`^[A-Za-z](_?[A-Za-z0-9])*$`)
	cases := map[string]string{
		"out:x":  "out_x",
		"c:-5":   "c_5",
		"_t1":    "t1",
		"9lives": "n9lives",
		"":       "sig",
		"normal": "normal",
	}
	for in, want := range cases {
		got := hdl.Sanitize(in)
		if got != want {
			t.Errorf("hdl.Sanitize(%q) = %q, want %q", in, got, want)
		}
		if !legal.MatchString(got) {
			t.Errorf("hdl.Sanitize(%q) = %q, not a legal VHDL identifier", in, got)
		}
	}
}

// TestPortListsWithoutOperations prints a design with no operation: its
// controller has no load enable or steering strobe, so clk and rst are
// its only ports. Every port clause and port map must still end without
// a separator before its closing parenthesis, and none may name a port
// twice: the design's result x shares its parameter's name.
func TestPortListsWithoutOperations(t *testing.T) {
	src, err := os.ReadFile("../../testdata/regress/wire-only-output.sil")
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range []bool{true, false} {
		text := generate(t, string(src), 1, pm)
		lines := strings.Split(text, "\n")
		var seen map[string]bool
		for i, l := range lines {
			if strings.TrimSpace(l) == ");" && (strings.HasSuffix(lines[i-1], ";") || strings.HasSuffix(lines[i-1], ",")) {
				t.Errorf("pm=%v, line %d: separator before the closing parenthesis: %q", pm, i, lines[i-1])
			}
			switch f := strings.Fields(l); {
			case strings.HasSuffix(l, "port (") || strings.HasSuffix(l, "port map ("):
				seen = make(map[string]bool)
			case seen != nil && len(f) >= 3 && (f[1] == ":" || f[1] == "=>"):
				name := strings.ToLower(f[0])
				if seen[name] {
					t.Errorf("pm=%v, line %d: port %s named twice", pm, i+1, f[0])
				}
				seen[name] = true
			}
		}
		if !strings.Contains(text, "    rst : in std_logic\n  );\nend entity;") {
			t.Errorf("pm=%v: controller entity does not end at rst", pm)
		}
	}
}

func TestVenderMultiplierEmitted(t *testing.T) {
	v := bench.Vender()
	r, err := core.Schedule(v.Graph(), core.Config{Budget: 5, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	c, err := ctrl.Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Generate(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "resize(") {
		t.Error("multiplier core not emitted")
	}
	if !strings.Contains(text, "shift_") && strings.Contains(v.Source, ">>") {
		t.Error("expected shift wiring")
	}
}

// flagsSrc computes a comparison and each logic operation; their results
// steer the output.
const flagsSrc = `
func flags(a: num<8>, b: num<8>) o: num<8> =
begin
    g = a > b;
    l = a < b;
    both = g & l;
    either = g | l;
    neither = !either;
    o = if both -> a || if neither -> b || a - b fi fi;
end
`

// TestFlagResultsFullWidth checks that every comparison and logic result
// is a full-width value in both branches, and that a logic operation's
// operand bits are parenthesized: & binds tighter than and.
func TestFlagResultsFullWidth(t *testing.T) {
	text := generate(t, flagsSrc, 5, true)
	for _, want := range []string{
		"y_g <= to_unsigned(1, 8) when u_comp0_a > u_comp0_b else to_unsigned(0, 8);",
		"y_both <= to_unsigned(1, 8) when (u_logic0_a(0) and u_logic0_b(0)) = '1' else to_unsigned(0, 8);",
		"y_either <= to_unsigned(1, 8) when (u_logic0_a(0) or u_logic0_b(0)) = '1' else to_unsigned(0, 8);",
		"y_neither <= to_unsigned(1, 8) when u_logic0_a(0) = '0' else to_unsigned(0, 8);",
		"u_logic0_b <= (others => '0');",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text, "downto 1 =>") {
		t.Error("a flag is still padded to width")
	}
}

// TestWideConstants checks that a constant above 2^31-1 prints as a
// bit-string literal of the full width: to_unsigned takes a natural, which
// VHDL guarantees only up to 2^31-1. Constants up to that bound keep
// to_unsigned.
func TestWideConstants(t *testing.T) {
	for _, tc := range []struct{ typ, k, want string }{
		{"num<40>", "4000000000", `unsigned'(B"0000000011101110011010110010100000000000")`},
		{"num<32>", "2147483648", `unsigned'(B"10000000000000000000000000000000")`},
		{"num<64>", "-1", `unsigned'(B"` + strings.Repeat("1", 64) + `")`},
		{"num<32>", "2147483647", "to_unsigned(2147483647, 32)"},
	} {
		src := fmt.Sprintf("func big(a: %s) o: %s = begin o = a + %s; end", tc.typ, tc.typ, tc.k)
		d, err := silage.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Schedule(d.Graph, core.Config{Budget: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := ctrl.Build(r.Schedule, alloc.Bind(r.Schedule, r.Guards), r.Guards, true)
		if err != nil {
			t.Fatal(err)
		}
		text, err := Generate(c, d.Width)
		if err != nil {
			t.Fatal(err)
		}
		if want := "u_add0_b <= " + tc.want + ";"; !strings.Contains(text, want) {
			t.Errorf("%s + %s: missing %q in\n%s", tc.typ, tc.k, want, text)
		}
	}
}
