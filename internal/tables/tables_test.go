package tables

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestTableIRendering(t *testing.T) {
	s, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dealer", "gcd", "vender", "cordic", "48", "47"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableIIRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	s, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "paper") {
		t.Error("Table II missing paper rows")
	}
	// Every circuit appears with every budget.
	for _, c := range bench.All() {
		if !strings.Contains(s, c.Name) {
			t.Errorf("Table II missing %s", c.Name)
		}
	}
}

// TestTableIIIRendering pins Table III as cmd/tables prints it (100
// vectors, seed 11): the gate-level chips' areas and powers, which no
// other table reads.
func TestTableIIIRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level sim in short mode")
	}
	s, err := TableIII(100, 11)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table3", s)
	for _, want := range []string{"dealer", "gcd", "vender", "paper"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
	if strings.Contains(s, "cordic") {
		t.Error("cordic should not appear in Table III")
	}
}

func TestFiguresRendering(t *testing.T) {
	s, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FIGURE 1", "FIGURE 2(a)", "FIGURE 2(b)",
		"power managed muxes: 0", "power managed muxes: 1",
		"1.0 of 2", "1.5 of 2",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("figures missing %q\n%s", want, s)
		}
	}
}

func TestResourceSweepRendering(t *testing.T) {
	s, err := ResourceSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "1.00") || !strings.Contains(s, "1.50") {
		t.Errorf("sweep missing full/partial gating rows:\n%s", s)
	}
	if !strings.Contains(s, "II.B") {
		t.Error("missing section marker")
	}
}

func TestAblationsRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in short mode")
	}
	s, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "IV.A") || !strings.Contains(s, "IV.B") {
		t.Error("ablation sections missing")
	}
	if !strings.Contains(s, "piped") {
		t.Error("pipelining rows missing")
	}
}
