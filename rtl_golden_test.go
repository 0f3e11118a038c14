package pmsynth

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctrl"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

var update = flag.Bool("update", false, "rewrite the paper circuits' RTL digests with the current output")

// TestGoldenPaperRTL pins the printed RTL of every paper circuit at every
// Table II budget: power managed and baseline, VHDL and Verilog, one
// SHA-256 per text (cordic's VHDL alone is thousands of lines). A printer
// change that moves a single byte of any of them fails here; an
// intentional one is re-pinned with
//
//	go test . -run GoldenPaperRTL -update
func TestGoldenPaperRTL(t *testing.T) {
	var b strings.Builder
	for _, c := range bench.All() {
		for _, budget := range c.Budgets {
			s, err := Synthesize(c.Design, Options{Budget: budget})
			if err != nil {
				t.Fatalf("%s at %d: %v", c.Name, budget, err)
			}
			pm, base, err := s.Flow.Controllers()
			if err != nil {
				t.Fatalf("%s at %d: %v", c.Name, budget, err)
			}
			for _, v := range []struct {
				name string
				c    *ctrl.Controller
			}{{"pm", pm}, {"baseline", base}} {
				for _, lang := range []struct {
					name string
					gen  func(*ctrl.Controller, int) (string, error)
				}{{"vhdl", vhdl.Generate}, {"verilog", verilog.Generate}} {
					text, err := lang.gen(v.c, c.Design.Width)
					if err != nil {
						t.Fatalf("%s at %d, %s %s: %v", c.Name, budget, v.name, lang.name, err)
					}
					fmt.Fprintf(&b, "%s %d %s %s %x\n", c.Name, budget, v.name, lang.name, sha256.Sum256([]byte(text)))
				}
			}
		}
	}
	path := filepath.Join("testdata", "paper_rtl.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d digests, golden has %d", len(got)-1, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("RTL drifted:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}
