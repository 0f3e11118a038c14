package verilog

import (
	"fmt"
	"os"
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
// identifier.
func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"out:x": "out_x", "9a": "n9a", "": "sig", "_t3": "_t3",
	}
	for in, want := range cases {
		if got := hdl.Sanitize(in); got != want {
			t.Errorf("hdl.Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPortListsWithoutOperations prints a design with no operation: its
// controller has no load enable or steering strobe, so clk and rst are
// its only ports. Every port list and instance must still end without a
// separator or a blank line before its closing parenthesis.
func TestPortListsWithoutOperations(t *testing.T) {
	src, err := os.ReadFile("../../testdata/regress/wire-only-output.sil")
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range []bool{true, false} {
		text := generate(t, string(src), 1, pm)
		lines := strings.Split(text, "\n")
		for i, l := range lines {
			if strings.TrimSpace(l) == ");" && (lines[i-1] == "" || strings.HasSuffix(lines[i-1], ",")) {
				t.Errorf("pm=%v, line %d: %q before the closing parenthesis", pm, i, lines[i-1])
			}
		}
		if !strings.Contains(text, "  input wire rst\n);") || !strings.Contains(text, "    .rst(rst)\n  );") {
			t.Errorf("pm=%v: controller ports do not end at rst", pm)
		}
	}
}
