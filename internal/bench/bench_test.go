package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestTableIStatisticsExact asserts that every reconstructed benchmark
// matches the paper's Table I row exactly.
func TestTableIStatisticsExact(t *testing.T) {
	want := map[string]tableIRow{
		"dealer": {cp: 4, mux: 3, comp: 3, add: 2, sub: 1, mul: 0},
		"gcd":    {cp: 5, mux: 6, comp: 2, add: 0, sub: 1, mul: 0},
		"vender": {cp: 5, mux: 6, comp: 3, add: 3, sub: 3, mul: 2},
		"cordic": {cp: 48, mux: 47, comp: 16, add: 43, sub: 46, mul: 0},
	}
	for _, c := range All() {
		st, err := c.Graph().ComputeStats()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := projectTableI(st); got != want[c.Name] {
			t.Errorf("%s: stats %+v, want %+v", c.Name, got, want[c.Name])
		}
	}
}

func TestAbsDiffStats(t *testing.T) {
	c := AbsDiff()
	st, _ := c.Graph().ComputeStats()
	if st.CriticalPath != 2 || st.Count[cdfg.ClassSub] != 2 {
		t.Errorf("absdiff stats: %v", st)
	}
}

func TestAllCircuitsValidate(t *testing.T) {
	for _, c := range append(All(), AbsDiff()) {
		if err := c.Graph().Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Design.Width != 8 {
			t.Errorf("%s: width %d, want 8", c.Name, c.Design.Width)
		}
	}
}

func TestCircuitsSimulateSensibly(t *testing.T) {
	// dealer: act selects per the comparisons; win = pot + bet.
	d := Dealer()
	out, err := sim.Evaluate(d.Graph(), map[string]int64{
		"score": 10, "card": 9, "pot": 30, "bet": 5,
	}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out["out:win"] != 35 {
		t.Errorf("dealer win = %d, want 35", out["out:win"])
	}
	// total=19 <= 127, so the action select falls through to card.
	if out["out:act"] != 9 {
		t.Errorf("dealer act = %d, want 9", out["out:act"])
	}
	// And the hit path: total over the limit routes the middle select.
	out2, err := sim.Evaluate(d.Graph(), map[string]int64{
		"score": 100, "card": 60, "pot": 30, "bet": 5,
	}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	// total=160>127, card=60<=127 -> m3 = bet = 5.
	if out2["out:act"] != 5 {
		t.Errorf("dealer act(hit) = %d, want 5", out2["out:act"])
	}

	// gcd: one Euclid step of (12, 8) -> diff 4, nxt = 4, g = min = 8.
	g := GCD()
	out, err = sim.Evaluate(g.Graph(), map[string]int64{"a": 12, "b": 8}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out["out:run"] != 1 {
		t.Error("gcd run flag should be 1 for a != b")
	}
	if out["out:nxt"] != 4 {
		t.Errorf("gcd nxt = %d, want diff 4", out["out:nxt"])
	}
	// Termination case: a == b.
	out, err = sim.Evaluate(g.Graph(), map[string]int64{"a": 7, "b": 7}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out["out:run"] != 0 {
		t.Error("gcd run flag should be 0 for a == b")
	}

	// vender: amt >= price picks the dime-scaled change.
	v := Vender()
	out, err = sim.Evaluate(v.Graph(), map[string]int64{
		"amt": 20, "price": 15, "coin": 5, "lim": 100,
	}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out["out:chg"] != (20*3-15)&255 {
		t.Errorf("vender chg = %d", out["out:chg"])
	}

	// cordic: rotating (x0,y0)=(100,0) by z0=32 (45 degrees in 1/256
	// turns) should move amplitude into y. With the coarse 8-bit angle
	// table we just require the outputs to be computable and z driven
	// toward zero.
	co := Cordic()
	out, err = sim.Evaluate(co.Graph(), map[string]int64{"x0": 100, "y0": 0, "z0": 32}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["out:zo"]; !ok {
		t.Fatal("cordic missing z output")
	}
}

// TestCordicSourceShape checks the generated source's structural
// commitments: 16 iterations, select-then-update z recurrence.
func TestCordicSourceShape(t *testing.T) {
	src := cordicSource()
	if n := strings.Count(src, "# --- iteration"); n != 16 {
		t.Errorf("iterations = %d, want 16", n)
	}
	if n := strings.Count(src, "zsel"); n < 15 {
		t.Errorf("zsel occurrences = %d, want >= 15", n)
	}
	if !strings.Contains(src, "xo = x16") {
		t.Error("missing final x output")
	}
}

// TestPMFeasibilityAcrossBudgets sweeps the Table II budgets through the
// concurrent sweep engine and checks the qualitative claims: the number of
// managed muxes and the datapath power reduction are non-decreasing in the
// budget, and savings fall in the paper's reported band (roughly 10-45%)
// at the largest budget.
func TestPMFeasibilityAcrossBudgets(t *testing.T) {
	for _, c := range All() {
		if c.Name == "cordic" && testing.Short() {
			continue
		}
		cfgs := make([]core.Config, len(c.Budgets))
		for i, budget := range c.Budgets {
			cfgs[i] = core.Config{Budget: budget, Weights: power.Weights}
		}
		ctxs, err := flow.RunAllPipeline(context.Background(), nil, c.Graph(), c.Design.Width, cfgs, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		prevManaged := -1
		prevRed := -1.0
		for i, fc := range ctxs {
			budget := c.Budgets[i]
			if fc.Err != nil {
				t.Fatalf("%s@%d: %v", c.Name, budget, fc.Err)
			}
			red := power.Reduction(fc.PM.Graph, fc.Activity, power.Weights)
			if fc.PM.NumManaged() < prevManaged {
				t.Errorf("%s@%d: managed %d decreased (prev %d)", c.Name, budget, fc.PM.NumManaged(), prevManaged)
			}
			if red < prevRed-1e-9 {
				t.Errorf("%s@%d: reduction %.3f decreased (prev %.3f)", c.Name, budget, red, prevRed)
			}
			prevManaged, prevRed = fc.PM.NumManaged(), red
		}
		if prevRed < 0.10 || prevRed > 0.50 {
			t.Errorf("%s: final reduction %.3f outside the paper's band", c.Name, prevRed)
		}
	}
}

// TestPMSemanticsPreservedOnBenchmarks verifies output equivalence of the
// gated schedules on a spread of inputs for every benchmark.
func TestPMSemanticsPreservedOnBenchmarks(t *testing.T) {
	inputsFor := func(g *cdfg.Graph, seed int64) map[string]int64 {
		in := make(map[string]int64)
		v := seed
		for _, id := range g.Inputs() {
			v = (v*1103515245 + 12345) & 255
			in[g.Node(id).Name] = v
		}
		return in
	}
	for _, c := range All() {
		budget := c.Budgets[len(c.Budgets)-1]
		r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for seed := int64(0); seed < 25; seed++ {
			in := inputsFor(c.Graph(), seed)
			ref, err := sim.Evaluate(c.Graph(), in, sim.Options{Width: 8})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.Name, seed, err)
			}
			for k, v := range ref {
				if got.Outputs[k] != v {
					t.Errorf("%s seed %d: output %s = %d, want %d", c.Name, seed, k, got.Outputs[k], v)
				}
			}
		}
	}
}

// TestDealerStaircase pins the dealer's characteristic Table II staircase
// in this reconstruction: no PM at the critical path, then one managed mux,
// then the fully gated 27.08% row (the paper's characteristic dealer row),
// then two managed muxes.
func TestDealerStaircase(t *testing.T) {
	c := Dealer()
	type row struct {
		managed int
		redPct  float64
	}
	want := map[int]row{
		4: {0, 0},
		5: {1, 16.67},
		6: {1, 27.08},
		7: {2, 35.42},
	}
	for budget, w := range want {
		r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
		if err != nil {
			t.Fatalf("@%d: %v", budget, err)
		}
		act, exact := power.AnalyzeExact(r.Graph, r.Guards)
		if !exact {
			t.Fatal("dealer should analyze exactly")
		}
		red := power.Reduction(r.Graph, act, power.Weights) * 100
		if r.NumManaged() != w.managed {
			t.Errorf("@%d: managed = %d, want %d", budget, r.NumManaged(), w.managed)
		}
		if red < w.redPct-0.5 || red > w.redPct+0.5 {
			t.Errorf("@%d: reduction = %.2f%%, want ~%.2f%%", budget, red, w.redPct)
		}
	}
}

// TestVenderMultipliersHalved: the headline vender property — the two
// multiplications sit on exclusive branches, so the expected multiplier
// executions drop to 1.0 of 2 (paper Table II).
func TestVenderMultipliersHalved(t *testing.T) {
	c := Vender()
	r, err := core.Schedule(c.Graph(), core.Config{Budget: 5, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	act, _ := power.AnalyzeExact(r.Graph, r.Guards)
	ops := act.ExpectedOps(r.Graph)
	if ops[cdfg.ClassMul] != 1.0 {
		t.Errorf("expected multiplier executions = %.2f, want 1.00", ops[cdfg.ClassMul])
	}
}

// TestCordicComparatorsAlwaysRun: every cordic comparator produces a
// controlling signal and must never be gated (paper: COMP stays 16.00).
func TestCordicComparatorsAlwaysRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cordic analysis in short mode")
	}
	c := Cordic()
	r, err := core.Schedule(c.Graph(), core.Config{Budget: 48, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	act, _ := power.AnalyzeExact(r.Graph, r.Guards)
	ops := act.ExpectedOps(r.Graph)
	if ops[cdfg.ClassComp] != 16 {
		t.Errorf("expected comparator executions = %.2f, want 16", ops[cdfg.ClassComp])
	}
	if ops[cdfg.ClassMux] != 47 {
		t.Errorf("expected mux executions = %.2f, want 47 (muxes themselves always run)", ops[cdfg.ClassMux])
	}
	// Adds and subs must drop below their totals.
	if ops[cdfg.ClassAdd] >= 43 || ops[cdfg.ClassSub] >= 46 {
		t.Errorf("adds/subs not reduced: %v", ops)
	}
}

func TestPaperDataPresent(t *testing.T) {
	for _, c := range All() {
		if len(c.PaperII) == 0 {
			t.Errorf("%s: missing paper Table II rows", c.Name)
		}
		if len(c.Budgets) == 0 {
			t.Errorf("%s: missing budgets", c.Name)
		}
		if c.Source == "" || c.Design == nil {
			t.Errorf("%s: incomplete circuit", c.Name)
		}
	}
	if Dealer().PaperIII.Steps != 6 || GCD().PaperIII.Steps != 7 || Vender().PaperIII.Steps != 6 {
		t.Error("paper Table III metadata wrong")
	}
	if Cordic().PaperIII.Steps != 0 {
		t.Error("cordic should have no Table III row")
	}
}
