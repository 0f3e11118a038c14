package chip

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctrl"
)

var update = flag.Bool("update", false, "rewrite the paper chips' golden with the current netlists")

// TestGoldenPaperChips pins both gate-level chips of every paper circuit
// at every Table II budget: gate and flip-flop counts, NAND2-equivalent
// area, and average power over 32 random vectors drawn with seed 11, the
// way Table III measures them. Table III reads these netlists, so a change
// to how a chip is built shows here before it reaches cmd/tables. An
// intentional change is re-pinned with
//
//	go test ./internal/chip -run GoldenPaperChips -update
func TestGoldenPaperChips(t *testing.T) {
	var b strings.Builder
	for _, c := range bench.All() {
		for _, budget := range c.Budgets {
			g, width := c.Graph(), c.Design.Width
			pm, base := controllers(t, g, budget, width)
			rep, err := Compare(pm, base, width, RandomVectors(g, width, 32, rand.New(rand.NewSource(11))))
			if err != nil {
				t.Fatalf("%s at %d: %v", c.Name, budget, err)
			}
			for _, v := range []struct {
				name        string
				ctl         *ctrl.Controller
				area, power float64
			}{
				{"pm", pm, rep.AreaNew, rep.PowerNew},
				{"baseline", base, rep.AreaOrig, rep.PowerOrig},
			} {
				ch, err := Build(v.ctl, width)
				if err != nil {
					t.Fatalf("%s at %d, %s: %v", c.Name, budget, v.name, err)
				}
				fmt.Fprintf(&b, "%s %d %s gates=%d dffs=%d area=%v power=%v\n", c.Name, budget, v.name,
					ch.Netlist.NumGates(), ch.Netlist.NumDFFs(), v.area, v.power)
			}
		}
	}
	path := filepath.Join("testdata", "paper_chips.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("paper chips drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
