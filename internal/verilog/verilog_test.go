package verilog

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

func TestModulesPresent(t *testing.T) {
	text := generate(t, absDiffSrc, 3, true)
	for _, want := range []string{
		"module absdiff_datapath", "module absdiff_controller",
		"module absdiff (", "endmodule", "always @(posedge clk)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Count(text, "endmodule") != 3 {
		t.Errorf("endmodule count = %d, want 3", strings.Count(text, "endmodule"))
	}
}

func TestPMGuardsInVerilogController(t *testing.T) {
	pm := generate(t, absDiffSrc, 3, true)
	orig := generate(t, absDiffSrc, 3, false)
	if !strings.Contains(pm, "& cond_g") || !strings.Contains(pm, "& ~cond_g") {
		t.Error("PM controller lacks guard terms")
	}
	if strings.Contains(orig, "& cond_g") {
		t.Error("baseline controller should not have guard terms")
	}
}

func TestDeterministic(t *testing.T) {
	if generate(t, absDiffSrc, 3, true) != generate(t, absDiffSrc, 3, true) {
		t.Error("not deterministic")
	}
}

func TestNoIllegalIdentifiers(t *testing.T) {
	text := generate(t, absDiffSrc, 3, true)
	if strings.Contains(text, "out:") || strings.Contains(text, "c:") {
		t.Error("internal prefixes leaked")
	}
}

func TestAllBenchmarksEmit(t *testing.T) {
	for _, c := range bench.All() {
		r, err := core.Schedule(c.Graph(), core.Config{Budget: c.Budgets[0], Weights: power.Weights})
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
		if !strings.Contains(text, "module "+c.Name+" (") {
			t.Errorf("%s: missing top module", c.Name)
		}
		// Balanced begin/end within always blocks: each "if (... begin"
		// has a matching end.
		if strings.Count(text, " begin") < strings.Count(text, "    end\n")-strings.Count(text, "  end\n") {
			t.Errorf("%s: unbalanced begin/end", c.Name)
		}
	}
}

func TestWidthValidation(t *testing.T) {
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
	for _, w := range []int{0, 99} {
		want := fmt.Sprintf("verilog: width %d outside [1,64]", w)
		if _, err := Generate(c, w); err == nil || err.Error() != want {
			t.Errorf("width %d: err = %v, want %q", w, err, want)
		}
	}
}

// TestSanitize pins the identifier rule the printer names every port,
// register and wire by: each name must come out a legal Verilog
// identifier, a letter or '_' and then letters, digits, '_' or '$'.
func TestSanitize(t *testing.T) {
	legal := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_$]*$`)
	cases := map[string]string{
		"out:x": "out_x", "9a": "n9a", "": "sig", "_t3": "t3",
	}
	for in, want := range cases {
		got := hdl.Sanitize(in)
		if got != want {
			t.Errorf("hdl.Sanitize(%q) = %q, want %q", in, got, want)
		}
		if !legal.MatchString(got) {
			t.Errorf("hdl.Sanitize(%q) = %q, not a legal Verilog identifier", in, got)
		}
	}
}

// TestPortListsWithoutOperations prints a design with no operation: its
// controller has no load enable or steering strobe, so clk and rst are
// its only ports. Every port list and instance must still end without a
// separator or a blank line before its closing parenthesis, and none may
// name a port twice: the design's result x shares its parameter's name.
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
			if strings.TrimSpace(l) == ");" && (lines[i-1] == "" || strings.HasSuffix(lines[i-1], ",")) {
				t.Errorf("pm=%v, line %d: %q before the closing parenthesis", pm, i, lines[i-1])
			}
			f := strings.Fields(strings.TrimSuffix(l, ","))
			switch {
			case strings.HasSuffix(l, " ("):
				seen = make(map[string]bool) // a module header or an instance
			case strings.TrimSpace(l) == ");" || strings.TrimSpace(l) == "":
				seen = nil
			case seen != nil && len(f) > 0 && (f[0] == "input" || f[0] == "output" || strings.HasPrefix(f[0], ".")):
				name := f[len(f)-1]
				if strings.HasPrefix(name, ".") {
					name = name[1:strings.Index(name, "(")]
				}
				if seen[name] {
					t.Errorf("pm=%v, line %d: port %s named twice", pm, i+1, name)
				}
				seen[name] = true
			}
		}
		if !strings.Contains(text, "  input wire rst\n);") || !strings.Contains(text, "    .rst(rst)\n  );") {
			t.Errorf("pm=%v: controller ports do not end at rst", pm)
		}
	}
}

// TestFlagResultsFullWidth checks that every comparison and logic result
// is a full-width value in a form legal at every width, 1 included.
func TestFlagResultsFullWidth(t *testing.T) {
	const src = `
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
	text := generate(t, src, 5, true)
	for _, want := range []string{
		"assign y_g = (u_comp0_a > u_comp0_b) ? 8'd1 : 8'd0;",
		"assign y_both = (u_logic0_a[0] & u_logic0_b[0]) ? 8'd1 : 8'd0;",
		"assign y_either = (u_logic0_a[0] | u_logic0_b[0]) ? 8'd1 : 8'd0;",
		"assign y_neither = (~u_logic0_a[0]) ? 8'd1 : 8'd0;",
		"u_logic0_b <= 8'd0;",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
}
