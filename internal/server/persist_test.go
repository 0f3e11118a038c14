package server

// Unit tests of the stored-result encodings: lossless round trips and
// the version/shape guards that make format drift read as a miss.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/cdfg"
)

var update = flag.Bool("update", false, "rewrite the stored-sweep golden with the current encoding")

// TestStoredSweepGolden pins the stored bytes of a finished sweep: one
// failed point, a pipelined II, a non-default order, a fixed resource
// bag and both RTL artifacts. A store written by an earlier build must
// still answer warm, so the stored shape may change only together with a
// persistVersion bump, which names a new golden file. Round trips within one build
// cannot see such a change; this comparison with bytes an earlier build
// wrote does. Pin the file of a new version with
//
//	go test ./internal/server -run StoredSweepGolden -update
func TestStoredSweepGolden(t *testing.T) {
	design, err := pmsynth.Compile(`
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := pmsynth.Sweep(design, pmsynth.SweepSpec{
		Budgets:   []int{4, 3, 1}, // budget 1 cannot take II 2: a failed point
		IIs:       []int{2},
		Orders:    []pmsynth.Order{pmsynth.OrderGreedyWeight},
		Resources: []map[cdfg.Class]int{{cdfg.ClassSub: 2, cdfg.ClassComp: 1, cdfg.ClassMux: 1}},
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Points[2].Err == nil {
		t.Fatal("budget 1 at II 2 did not fail")
	}
	blob, err := encodeSweepResult(sr, rtl{vhdl: true, verilog: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", fmt.Sprintf("stored_sweep_v%d.json", persistVersion))
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden for persistVersion %d (run with -update to create): %v", persistVersion, err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("stored sweep bytes drifted from %s without a persistVersion bump.\n--- got ---\n%s\n--- want ---\n%s",
			path, blob, want)
	}
	fs, err := decodeSweepResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.sr.Table(); got != sr.Table() {
		t.Errorf("golden decodes to a different table:\n%s\nwant:\n%s", got, sr.Table())
	}
	vhdl, err := sr.Points[0].Synthesis.VHDL()
	if err != nil {
		t.Fatal(err)
	}
	verilog, err := sr.Points[0].Synthesis.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if fs.vhdl != vhdl || fs.verilog != verilog {
		t.Error("golden decodes to different RTL")
	}
}

// TestSynthResultRoundTrip: a synthesize is a one-point sweep whose
// stored table also carries the RTL it asked for; row and artifacts
// round trip losslessly.
func TestSynthResultRoundTrip(t *testing.T) {
	design, err := pmsynth.Compile(`
func inc(a: num<8>) out: num<8> =
begin
    out = a + 1;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := pmsynth.Sweep(design, pmsynth.SweepSpec{Budgets: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	syn := sr.Points[0].Synthesis
	vhdl, err := syn.VHDL()
	if err != nil {
		t.Fatal(err)
	}
	verilog, err := syn.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeSweepResult(sr, rtl{vhdl: true, verilog: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSweepResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.sr.Points[0].Row != sr.Points[0].Row || got.vhdl != vhdl || got.verilog != verilog {
		t.Fatalf("round trip changed the value:\nin:  %+v\nout: %+v", sr.Points[0].Row, got.sr.Points[0].Row)
	}
	// An emit-free encoding carries no RTL.
	if blob, err = encodeSweepResult(sr, rtl{}); err != nil {
		t.Fatal(err)
	}
	if got, err = decodeSweepResult(blob); err != nil || got.vhdl != "" || got.verilog != "" {
		t.Fatalf("emit-free table decoded to %+v, %v", got, err)
	}
}

// TestDecodeSynthResultRejects: the synthesize result shape of earlier
// daemons is never misread as a table.
func TestDecodeSynthResultRejects(t *testing.T) {
	for _, old := range []string{
		`{"v":2,"row":{"Circuit":"inc","Steps":1}}`,
		`{"v":2,"row":{},"vhdl":"entity inc is ...","verilog":"module inc(...)"}`,
	} {
		if _, err := decodeSweepResult([]byte(old)); err == nil {
			t.Fatalf("decoded %q", old)
		}
	}
}

func TestSweepResultRoundTrip(t *testing.T) {
	design, err := pmsynth.Compile(`
func inc(a: num<8>) out: num<8> =
begin
    out = a + 1;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := pmsynth.Sweep(design, pmsynth.SweepSpec{BudgetMin: 1, BudgetMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sr.Points {
		sr.Points[i].Synthesis = nil
	}
	// Inject a failed point shape too.
	sr.Points[0].Err = errors.New("budget 0 below critical path")
	sr.Points[0].Row = pmsynth.Row{}

	blob, err := encodeSweepResult(sr, rtl{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := decodeSweepResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := fs.sr
	// Every view the server serves must match byte for byte.
	if got.Table() != sr.Table() {
		t.Fatalf("tables diverged:\n%s\n%s", sr.Table(), got.Table())
	}
	if len(got.Points) != len(sr.Points) {
		t.Fatalf("points = %d, want %d", len(got.Points), len(sr.Points))
	}
	for i := range sr.Points {
		a, b := &sr.Points[i], &got.Points[i]
		if a.Options.Budget != b.Options.Budget || a.Row != b.Row {
			t.Fatalf("point %d diverged: %+v vs %+v", i, a, b)
		}
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("point %d error presence diverged", i)
		}
		if a.Err != nil && a.Err.Error() != b.Err.Error() {
			t.Fatalf("point %d error text diverged: %q vs %q", i, a.Err, b.Err)
		}
	}
}

func TestDecodeSweepResultRejects(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"v":999,"design":"x","points":[]}`,
		fmt.Sprintf(`{"v":%d,"design":"x","points":[{"options":{"budget":1,"order":"bogus"}}]}`, persistVersion), // unknown order
		fmt.Sprintf(`{"v":%d,"design":"x","points":[{"options":{"budget":1}}]}`, persistVersion),                 // neither row nor err
	} {
		if _, err := decodeSweepResult([]byte(bad)); err == nil {
			t.Fatalf("decoded %q", bad)
		}
	}
}

func TestStoreStatsAccessor(t *testing.T) {
	noStore, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer noStore.Close()
	if _, ok := noStore.StoreStats(); ok {
		t.Fatal("store-less server reports store stats")
	}

	withStore, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer withStore.Close()
	if st, ok := withStore.StoreStats(); !ok || st.Entries != 0 {
		t.Fatalf("StoreStats = %+v, %v", st, ok)
	}
}
