package power

import (
	"math"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/silage"
	"repro/internal/sim"
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

func pmSchedule(t *testing.T, src string, budget int) *core.Result {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: Weights})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWeightsTable(t *testing.T) {
	// The paper's Section V weights.
	want := map[cdfg.Class]float64{
		cdfg.ClassMux: 1, cdfg.ClassComp: 4, cdfg.ClassAdd: 3,
		cdfg.ClassSub: 3, cdfg.ClassMul: 20,
	}
	for c, w := range want {
		if Weights[c] != w {
			t.Errorf("weight[%v] = %v, want %v", c, Weights[c], w)
		}
	}
}

func TestAnalyzeExactAbsDiff(t *testing.T) {
	r := pmSchedule(t, absDiffSrc, 3)
	act, exact := AnalyzeExact(r.Graph, r.Guards)
	if !exact {
		t.Fatal("absdiff should be exactly analyzable")
	}
	g := r.Graph
	cases := map[string]float64{"g": 1, "d1": 0.5, "d2": 0.5, "out": 1}
	for name, want := range cases {
		if got := act.Prob[g.Lookup(name)]; math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestExpectedOpsAndReductionAbsDiff(t *testing.T) {
	r := pmSchedule(t, absDiffSrc, 3)
	act, _ := AnalyzeExact(r.Graph, r.Guards)
	ops := act.ExpectedOps(r.Graph)
	if math.Abs(ops[cdfg.ClassSub]-1.0) > 1e-12 {
		t.Errorf("expected subs = %v, want 1.0", ops[cdfg.ClassSub])
	}
	if math.Abs(ops[cdfg.ClassComp]-1.0) > 1e-12 || math.Abs(ops[cdfg.ClassMux]-1.0) > 1e-12 {
		t.Errorf("comp/mux expectations wrong: %v", ops)
	}
	// Ungated: 1 + 4 + 3 + 3 = 11; gated: 1 + 4 + 3*0.5 + 3*0.5 = 8.
	red := Reduction(r.Graph, act, Weights)
	want := 1 - 8.0/11.0
	if math.Abs(red-want) > 1e-12 {
		t.Errorf("reduction = %.4f, want %.4f", red, want)
	}
}

func TestUngatedBaseline(t *testing.T) {
	r := pmSchedule(t, absDiffSrc, 2) // no PM possible at 2 steps
	act, _ := AnalyzeExact(r.Graph, r.Guards)
	if Reduction(r.Graph, act, Weights) != 0 {
		t.Error("no PM should mean zero reduction")
	}
	u := Ungated(r.Graph)
	if u.WeightedPower(r.Graph, Weights) != 11 {
		t.Errorf("ungated power = %v, want 11", u.WeightedPower(r.Graph, Weights))
	}
}

// TestCorrelatedSelects: two muxes sharing one comparator are fully
// correlated; the exact analysis must not multiply their probabilities.
func TestCorrelatedSelects(t *testing.T) {
	src := `
func corr(a: num<8>, b: num<8>) o1: num<8>, o2: num<8> =
begin
    c  = a > b;
    t1 = a + 1;
    t2 = a - 1;
    u1 = b + 2;
    u2 = b - 2;
    o1 = if c -> t1 || t2 fi;
    o2 = if c -> u1 || u2 fi;
end
`
	r := pmSchedule(t, src, 3)
	if r.NumManaged() != 2 {
		t.Fatalf("managed = %d, want 2", r.NumManaged())
	}
	act, exact := AnalyzeExact(r.Graph, r.Guards)
	if !exact {
		t.Fatal("want exact analysis")
	}
	g := r.Graph
	// t1 and u1 execute together (same condition): each with P=0.5.
	for _, name := range []string{"t1", "t2", "u1", "u2"} {
		if p := act.Prob[g.Lookup(name)]; math.Abs(p-0.5) > 1e-12 {
			t.Errorf("P(%s) = %v, want 0.5", name, p)
		}
	}
	// Joint check via expected adds: exactly one add and one sub execute
	// per sample regardless of the outcome; expectation 1.0 each.
	ops := act.ExpectedOps(g)
	if math.Abs(ops[cdfg.ClassAdd]-1.0) > 1e-12 || math.Abs(ops[cdfg.ClassSub]-1.0) > 1e-12 {
		t.Errorf("expected ops = %v", ops)
	}
}

// TestNestedGuardsProbability: ops under two independent conditions
// execute with probability 1/4 (or complementarily 3/8 etc.).
func TestNestedGuardsProbability(t *testing.T) {
	src := `
func nest(a: num<8>, b: num<8>, x: num<8>) o: num<8> =
begin
    outer = a > b;
    t1    = a - b;
    inner = t1 > 4;
    t2    = t1 * 3;
    t3    = t1 + 7;
    m     = if inner -> t2 || t3 fi;
    o     = if outer -> m || x fi;
end
`
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := d.Graph.CriticalPath()
	r, err := core.Schedule(d.Graph, core.Config{Budget: cp + 2, Weights: Weights})
	if err != nil {
		t.Fatal(err)
	}
	act, exact := AnalyzeExact(r.Graph, r.Guards)
	if !exact {
		t.Fatal("want exact analysis")
	}
	g := r.Graph
	checks := map[string]float64{
		"t1":    0.5,  // outer only
		"inner": 0.5,  // outer only
		"m":     0.5,  // outer only
		"t2":    0.25, // outer && inner
		"t3":    0.25, // outer && !inner
	}
	for name, want := range checks {
		if got := act.Prob[g.Lookup(name)]; math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestMonteCarloMatchesExactOnInducedUniformity(t *testing.T) {
	// For absdiff with uniform random 8-bit inputs, P(a>b) = 32640/65536
	// ≈ 0.498, so Monte Carlo activation of d1 should be near 0.5.
	r := pmSchedule(t, absDiffSrc, 3)
	act, err := MonteCarlo(r.Schedule, r.Guards, 8, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Graph
	if p := act.Prob[g.Lookup("d1")]; math.Abs(p-0.498) > 0.05 {
		t.Errorf("MC P(d1) = %v, want ~0.5", p)
	}
	if p := act.Prob[g.Lookup("g")]; p != 1 {
		t.Errorf("MC P(g) = %v, want 1", p)
	}
	exact, _ := AnalyzeExact(r.Graph, r.Guards)
	for _, name := range []string{"d1", "d2"} {
		id := g.Lookup(name)
		if math.Abs(act.Prob[id]-exact.Prob[id]) > 0.05 {
			t.Errorf("MC vs exact for %s: %v vs %v", name, act.Prob[id], exact.Prob[id])
		}
	}
}

func TestMonteCarloErrors(t *testing.T) {
	r := pmSchedule(t, absDiffSrc, 3)
	if _, err := MonteCarlo(r.Schedule, r.Guards, 8, 0, 1); err == nil {
		t.Error("runs=0 accepted")
	}
}

func TestWeightedPowerDefaultsUnknownClasses(t *testing.T) {
	d, err := silage.Compile("func l(a: num, b: num) o: bool = begin g1 = a > b; g2 = a < b; o = g1 & g2; end")
	if err != nil {
		t.Fatal(err)
	}
	u := Ungated(d.Graph)
	// Two comps (4 each) + one logic op (default weight 1).
	if got := u.WeightedPower(d.Graph, Weights); got != 9 {
		t.Errorf("power = %v, want 9", got)
	}
}

func TestReductionZeroPowerGraph(t *testing.T) {
	g := cdfg.New("empty")
	a := cdfg.MustAdd(g.AddInput("a"))
	cdfg.MustAdd(g.AddOutput("o", a))
	if r := Reduction(g, Ungated(g), Weights); r != 0 {
		t.Errorf("empty graph reduction = %v", r)
	}
}

func TestApproximationFallback(t *testing.T) {
	// Build guards with more than MaxExactSelects distinct selects.
	g := cdfg.New("big")
	a := cdfg.MustAdd(g.AddInput("a"))
	b := cdfg.MustAdd(g.AddInput("b"))
	guards := make(sim.Guards)
	var last cdfg.NodeID = a
	for i := 0; i < MaxExactSelects+2; i++ {
		c := cdfg.MustAdd(g.AddOp(cdfg.KindGt, nameN("c", i), last, b))
		op := cdfg.MustAdd(g.AddOp(cdfg.KindAdd, nameN("t", i), a, b))
		guards[op] = []sim.Guard{{Sel: c, WhenTrue: true}}
		last = op
	}
	cdfg.MustAdd(g.AddOutput("o", last))
	act, exact := AnalyzeExact(g, guards)
	if exact {
		t.Error("should have fallen back to approximation")
	}
	for op, gl := range guards {
		want := math.Pow(0.5, float64(len(gl)))
		if math.Abs(act.Prob[op]-want) > 1e-12 {
			t.Errorf("approx P = %v, want %v", act.Prob[op], want)
		}
	}
}

func nameN(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestDeriveWeights(t *testing.T) {
	w := DeriveWeights(map[cdfg.Class]float64{
		cdfg.ClassMux: 2, cdfg.ClassAdd: 6, cdfg.ClassMul: 40,
	})
	if w[cdfg.ClassMux] != 1 || w[cdfg.ClassAdd] != 3 || w[cdfg.ClassMul] != 20 {
		t.Errorf("derived = %v", w)
	}
	// Missing mux cost: base defaults to 1.
	w2 := DeriveWeights(map[cdfg.Class]float64{cdfg.ClassAdd: 5})
	if w2[cdfg.ClassAdd] != 5 {
		t.Errorf("derived without mux = %v", w2)
	}
}

// TestExactMatchesSimExhaustively: for a small design, enumerate all input
// pairs and compare measured activation frequencies of the data-independent
// estimate against the structural probabilities. For absdiff with the
// comparator a>b, inputs are near-balanced; exact structural probability is
// 0.5 and the empirical rate over all 2^16 pairs is 32640/65536.
func TestExactMatchesSimExhaustively(t *testing.T) {
	r := pmSchedule(t, absDiffSrc, 3)
	g := r.Graph
	count := 0
	total := 0
	for a := 0; a < 256; a += 8 { // sampled grid to keep the test fast
		for b := 0; b < 256; b += 8 {
			in := map[string]int64{"a": int64(a), "b": int64(b)}
			res, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
			if err != nil {
				t.Fatal(err)
			}
			total++
			if res.Executed[g.Lookup("d1")] {
				count++
			}
		}
	}
	rate := float64(count) / float64(total)
	if math.Abs(rate-0.484) > 0.02 { // grid-sampled P(a>b)
		t.Errorf("empirical rate = %v", rate)
	}
}
