package verilog

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden Verilog with the current output")

// TestGoldenAbsDiff locks the emitted Verilog for the canonical example. A
// deliberate printer change is re-pinned with
//
//	go test ./internal/verilog -run GoldenAbsDiff -update
func TestGoldenAbsDiff(t *testing.T) {
	got := generate(t, absDiffSrc, 3, true)
	const path = "testdata/absdiff_pm.v"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Verilog output drifted from %s; if intentional, re-pin with -update", path)
	}
}
