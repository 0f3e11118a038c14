package server

// Unit tests of the stored-result encodings: lossless round trips and
// the version/shape guards that make format drift read as a miss.

import (
	"errors"
	"fmt"
	"testing"

	"repro"
)

func TestSynthResultRoundTrip(t *testing.T) {
	in := &synthResult{
		row: pmsynth.Row{
			Circuit: "absdiff", Steps: 3, PMMuxes: 1, AreaIncrease: 1.25,
			Mux: 1, Comp: 1, Sub: 1.5, PowerReductionPct: 27.27,
		},
		vhdl:    "entity absdiff is ...",
		verilog: "module absdiff(...)",
	}
	blob, err := encodeSynthResult(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeSynthResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip changed the value:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestDecodeSynthResultRejects(t *testing.T) {
	if _, err := decodeSynthResult([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	// A future version must be recomputed, never misread.
	if _, err := decodeSynthResult([]byte(`{"v":999,"row":{}}`)); err == nil {
		t.Fatal("future version decoded")
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

	blob, err := encodeSweepResult(sr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSweepResult(blob)
	if err != nil {
		t.Fatal(err)
	}
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
