package pmsynth

import (
	"strings"
	"testing"

	"repro/internal/cdfg"
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

func TestCompileAndSynthesize(t *testing.T) {
	d, err := Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CriticalPath(d)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 2 {
		t.Errorf("critical path = %d, want 2", cp)
	}
	syn, err := Synthesize(d, Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	row := syn.Row()
	if row.PMMuxes != 1 {
		t.Errorf("PM muxes = %d, want 1", row.PMMuxes)
	}
	if row.Sub != 1.0 {
		t.Errorf("expected subs = %v, want 1.0", row.Sub)
	}
	// 1 - 8/11 = 27.27%.
	if row.PowerReductionPct < 27 || row.PowerReductionPct > 28 {
		t.Errorf("reduction = %.2f%%, want ~27.3%%", row.PowerReductionPct)
	}
	if row.AreaIncrease != 1.0 {
		t.Errorf("area increase = %.2f, want 1.0", row.AreaIncrease)
	}
	if !strings.Contains(row.String(), "absdiff") {
		t.Error("row string missing circuit name")
	}
	if !syn.ActivityExact {
		t.Error("absdiff should analyze exactly")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(nil, Options{Budget: 3}); err == nil {
		t.Error("nil design accepted")
	}
	d := MustCompile(absDiffSrc)
	if _, err := Synthesize(d, Options{Budget: 1}); err == nil {
		t.Error("budget below critical path accepted")
	}
}

func TestVHDLOutputs(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	text, err := syn.VHDL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "power managed") {
		t.Error("PM VHDL header missing")
	}
	base, err := syn.BaselineVHDL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(base, "traditional") {
		t.Error("baseline VHDL header missing")
	}
	if syn.DOT() == "" || !strings.Contains(syn.DOT(), "digraph") {
		t.Error("DOT output missing")
	}
}

func TestVerilogOutput(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	text, err := syn.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module absdiff", "power managed", "endmodule"} {
		if !strings.Contains(text, want) {
			t.Errorf("Verilog missing %q", want)
		}
	}
}

func TestVerify(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Verify(200, 42); err != nil {
		t.Error(err)
	}
	if err := syn.Verify(-1, 42); err != nil {
		t.Errorf("Verify(-1): %v", err)
	}
}

func TestOptimalProducesCertifiedBaseline(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := syn.Optimal(0)
	if err != nil {
		t.Fatal(err)
	}
	if opt == nil {
		t.Fatal("missing optimal result")
	}
	if !opt.Cert.Optimal {
		t.Fatalf("cert = %+v, want optimal on absdiff", opt.Cert)
	}
	hp := syn.WeightedPower()
	if opt.Power > hp {
		t.Fatalf("optimal power %v above heuristic %v", opt.Power, hp)
	}
	if err := opt.Schedule.Validate(syn.Flow.Config.Resources); err != nil {
		t.Fatalf("invalid optimal schedule: %v", err)
	}
}

func TestGateLevelReport(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := syn.GateLevelReport(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerReductionPct() <= 0 {
		t.Errorf("gate-level reduction = %.1f%%, want > 0", rep.PowerReductionPct())
	}
	// A negative count (pmsched -gates -samples -1) draws no vectors: an
	// error, not a panic.
	if _, err := syn.GateLevelReport(-1, 7); err == nil {
		t.Error("GateLevelReport(-1) succeeded")
	}
}

func TestEvaluateFacade(t *testing.T) {
	d := MustCompile(absDiffSrc)
	out, err := Evaluate(d, map[string]int64{"a": 9, "b": 4})
	if err != nil {
		t.Fatal(err)
	}
	if out["out"] != 5 {
		t.Errorf("out = %d, want 5", out["out"])
	}
}

func TestFixedResources(t *testing.T) {
	d := MustCompile(absDiffSrc)
	syn, err := Synthesize(d, Options{
		Budget:    3,
		Resources: map[cdfg.Class]int{cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Partial gating: only one sub gated under a single subtractor.
	if got := len(syn.PM.Guards); got != 1 {
		t.Errorf("gated ops = %d, want 1", got)
	}
	if err := syn.Verify(100, 3); err != nil {
		t.Error(err)
	}
}

func TestPipelineOption(t *testing.T) {
	src := `
func pipe(a: num<8>, b: num<8>) o: num<8> =
begin
    s  = a + b;
    c  = s > 9;
    t1 = s * 3;
    t2 = s - 1;
    o  = if c -> t1 || t2 fi;
end
`
	d := MustCompile(src)
	syn, err := Synthesize(d, Options{Budget: 6, II: 3})
	if err != nil {
		t.Fatal(err)
	}
	if syn.PM.Schedule.II != 3 {
		t.Errorf("II = %d, want 3", syn.PM.Schedule.II)
	}
	if syn.PM.NumManaged() != 1 {
		t.Errorf("pipelined managed = %d, want 1", syn.PM.NumManaged())
	}
}

func TestOrderOption(t *testing.T) {
	d := MustCompile(absDiffSrc)
	for _, o := range []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight} {
		syn, err := Synthesize(d, Options{Budget: 3, Order: o})
		if err != nil {
			t.Errorf("%v: %v", o, err)
			continue
		}
		if syn.PM.NumManaged() != 1 {
			t.Errorf("%v: managed = %d", o, syn.PM.NumManaged())
		}
	}
}

func TestDumpVCD(t *testing.T) {
	syn, err := Synthesize(MustCompile(absDiffSrc), Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := syn.DumpVCD(3, 7, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$enddefinitions", "in_a", "in_b", "out_out", "#0"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Only change-bearing timesteps are emitted: the initial values plus
	// one per sample boundary (inputs and output change together).
	if strings.Count(out, "\n#") < 3 {
		t.Errorf("suspiciously few timesteps:\n%s", out)
	}
}

func TestMultiFunctionDesignThroughFacade(t *testing.T) {
	design, err := Compile(`
func absd(x: num<8>, y: num<8>) d: num<8> =
begin
    g = x > y;
    a = x - y;
    b = y - x;
    d = if g -> a || b fi;
end

func main(p: num<8>, q: num<8>, r: num<8>) o: num<8> =
begin
    d1 = absd(p, q);
    d2 = absd(q, r);
    o  = d1 + d2;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Evaluate(design, map[string]int64{"p": 9, "q": 4, "r": 7})
	if err != nil {
		t.Fatal(err)
	}
	if out["o"] != 5+3 {
		t.Errorf("o = %d, want 8", out["o"])
	}
	cp, _ := CriticalPath(design)
	syn, err := Synthesize(design, Options{Budget: cp + 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both inlined conditionals become power manageable.
	if syn.PM.NumManaged() != 2 {
		t.Errorf("managed = %d, want 2", syn.PM.NumManaged())
	}
	if err := syn.Verify(200, 5); err != nil {
		t.Error(err)
	}
}
