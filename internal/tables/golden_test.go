package tables

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// golden compares one rendered table against its pinned snapshot. The
// paper-facing numbers (cmd/tables prints exactly these strings) must
// never drift silently: any intentional change is re-pinned with
//
//	go test ./internal/tables -run 'Golden|TableIIIRendering' -update
func golden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden snapshot.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, re-pin with: go test ./internal/tables -run %s -update",
			name, got, want, t.Name())
	}
}

// TestGoldenTableI pins the circuit statistics table.
func TestGoldenTableI(t *testing.T) {
	out, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table1", out)
}

// TestGoldenTableII pins the measured Table II rows — the paper's central
// result. The sweep engine renders these via concurrent evaluation, so
// this doubles as a determinism regression: any worker-dependent output
// would diff against the snapshot.
func TestGoldenTableII(t *testing.T) {
	out, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table2", out)
}

// TestGoldenTableOptimal pins the heuristic-vs-exact gap table. The
// expansion cap is part of the pinned configuration: the two slack-budget
// cordic points exceed it and must keep reporting bound certificates, the
// rest certify. Like Table II, the rows render through the concurrent
// sweep engine, so the snapshot also guards solver determinism.
func TestGoldenTableOptimal(t *testing.T) {
	out, err := TableOptimal(20000)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table_optimal", out)
}

// TestGoldenFigures pins the |a-b| walkthrough of Figures 1 and 2.
func TestGoldenFigures(t *testing.T) {
	out, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "figures", out)
}

// TestGoldenResourceSweep pins the §II.B fixed-hardware study.
func TestGoldenResourceSweep(t *testing.T) {
	out, err := ResourceSweep()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "resource_sweep", out)
}

// TestGoldenAblations pins the §IV studies: mux processing order and
// two-stage pipelining.
func TestGoldenAblations(t *testing.T) {
	out, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "ablations", out)
}
