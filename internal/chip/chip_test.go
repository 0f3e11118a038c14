package chip

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/flow"
	"repro/internal/power"
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

func buildChip(t *testing.T, src string, budget int, pm bool) (*core.Result, *Chip) {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	c, err := ctrl.Build(r.Schedule, b, r.Guards, pm)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Build(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	return r, ch
}

// controllers runs the schedule, bind and baseline passes on g at the
// given budget and returns the power managed and baseline controllers.
func controllers(t *testing.T, g *cdfg.Graph, budget, width int) (pm, base *ctrl.Controller) {
	t.Helper()
	fc := &flow.Context{Graph: g, Width: width, Config: core.Config{Budget: budget}}
	if err := flow.New(flow.SchedulePass{}, flow.BindPass{}, flow.BaselinePass{}).Run(fc); err != nil {
		t.Fatalf("%s at %d: %v", g.Name, budget, err)
	}
	pm, base, err := fc.Controllers()
	if err != nil {
		t.Fatalf("%s at %d: %v", g.Name, budget, err)
	}
	return pm, base
}

func TestChipComputesAbsDiff(t *testing.T) {
	_, ch := buildChip(t, absDiffSrc, 3, true)
	tb, err := ch.NewTestbench()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want int64 }{
		{9, 4, 5}, {4, 9, 5}, {7, 7, 0}, {255, 0, 255}, {0, 0, 0},
	}
	for _, c := range cases {
		out, err := ch.RunSample(tb, map[string]int64{"a": c.a, "b": c.b})
		if err != nil {
			t.Fatal(err)
		}
		if out["out"] != c.want {
			t.Errorf("|%d-%d| = %d, want %d", c.a, c.b, out["out"], c.want)
		}
	}
}

func TestChipMatchesReferenceRandom(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, ch := buildChip(t, absDiffSrc, 3, true)
	tb, err := ch.NewTestbench()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		in := map[string]int64{"a": r.Int63n(256), "b": r.Int63n(256)}
		want, err := sim.Evaluate(d.Graph, in, sim.Options{Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.RunSample(tb, in)
		if err != nil {
			t.Fatal(err)
		}
		if got["out"] != want["out:out"] {
			t.Fatalf("iter %d: chip %d, reference %d (in %v)", i, got["out"], want["out:out"], in)
		}
	}
}

// TestGatingReducesChipPower is the Table III headline at miniature scale:
// the PM chip must burn measurably less than the baseline on the same
// input stream.
func TestGatingReducesChipPower(t *testing.T) {
	g := silage.MustCompile(absDiffSrc).Graph
	pm, base := controllers(t, g, 3, 8)
	rep, err := Compare(pm, base, 8, RandomVectors(g, 8, 150, rand.New(rand.NewSource(99))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerNew >= rep.PowerOrig {
		t.Errorf("no gate-level savings: orig %.1f, new %.1f", rep.PowerOrig, rep.PowerNew)
	}
	if rep.PowerReductionPct() < 3 {
		t.Errorf("savings suspiciously small: %.1f%%", rep.PowerReductionPct())
	}
	if rep.AreaOrig <= 0 || rep.AreaNew <= 0 {
		t.Error("missing areas")
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

// TestChipNestedConditionals exercises guard chains at gate level.
func TestChipNestedConditionals(t *testing.T) {
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
	_, ch := buildChip(t, src, cp+2, true)
	tb, err := ch.NewTestbench()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		in := map[string]int64{"a": r.Int63n(256), "b": r.Int63n(256), "x": r.Int63n(256)}
		want, err := sim.Evaluate(d.Graph, in, sim.Options{Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.RunSample(tb, in)
		if err != nil {
			t.Fatal(err)
		}
		if got["o"] != want["out:o"] {
			t.Fatalf("iter %d: chip %d, reference %d (in %v)", i, got["o"], want["out:o"], in)
		}
	}
}

// TestChipAllBenchmarksFunctional builds the PM chip for each benchmark at
// its largest Table II budget and verifies functional equivalence on a few
// samples. Cordic is skipped in -short mode (large netlist).
func TestChipAllBenchmarksFunctional(t *testing.T) {
	for _, c := range bench.All() {
		if c.Name == "cordic" && testing.Short() {
			continue
		}
		budget := c.Budgets[len(c.Budgets)-1]
		r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		b := alloc.Bind(r.Schedule, r.Guards)
		ctl, err := ctrl.Build(r.Schedule, b, r.Guards, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ch, err := Build(ctl, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		tb, err := ch.NewTestbench()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		rnd := rand.New(rand.NewSource(23))
		samples := 10
		if c.Name == "cordic" {
			samples = 3
		}
		for i := 0; i < samples; i++ {
			in := make(map[string]int64)
			for _, id := range c.Graph().Inputs() {
				in[c.Graph().Node(id).Name] = rnd.Int63n(256)
			}
			want, err := sim.Evaluate(c.Graph(), in, sim.Options{Width: 8})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ch.RunSample(tb, in)
			if err != nil {
				t.Fatalf("%s sample %d: %v", c.Name, i, err)
			}
			for _, id := range c.Graph().Outputs() {
				port := silage.PortName(c.Graph().Node(id).Name)
				if got[port] != want[c.Graph().Node(id).Name] {
					t.Errorf("%s sample %d out %s: chip %d, ref %d (in %v)",
						c.Name, i, port, got[port], want[c.Graph().Node(id).Name], in)
				}
			}
		}
	}
}

func TestChipBuildErrors(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	c, err := ctrl.Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Build(c, 64); err == nil {
		t.Error("width 64 accepted")
	}
}

func TestCompareSampleValidation(t *testing.T) {
	g := silage.MustCompile(absDiffSrc).Graph
	pm, base := controllers(t, g, 3, 8)
	if _, err := Compare(pm, base, 8, RandomVectors(g, 8, 0, rand.New(rand.NewSource(1)))); err == nil {
		t.Error("zero samples accepted")
	}
}

// TestBaselineChipLoadsEverything: the baseline chip charges every unit
// every scheduled step; its subtractor operand registers toggle for both
// subtractions regardless of the comparison.
func TestBaselineChipPowerExceedsPM(t *testing.T) {
	d := silage.MustCompile(absDiffSrc)
	// Use the same schedule for both controllers to isolate gating.
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	pmCtl, err := ctrl.Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	origCtl, err := ctrl.Build(r.Schedule, b, r.Guards, false)
	if err != nil {
		t.Fatal(err)
	}
	pmChip, err := Build(pmCtl, 8)
	if err != nil {
		t.Fatal(err)
	}
	origChip, err := Build(origCtl, 8)
	if err != nil {
		t.Fatal(err)
	}
	pmTB, err := pmChip.NewTestbench()
	if err != nil {
		t.Fatal(err)
	}
	origTB, err := origChip.NewTestbench()
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	warm := map[string]int64{"a": 1, "b": 2}
	pmChip.RunSample(pmTB, warm)
	origChip.RunSample(origTB, warm)
	pmTB.ResetStats()
	origTB.ResetStats()
	for i := 0; i < 120; i++ {
		in := map[string]int64{"a": rnd.Int63n(256), "b": rnd.Int63n(256)}
		if _, err := pmChip.RunSample(pmTB, in); err != nil {
			t.Fatal(err)
		}
		if _, err := origChip.RunSample(origTB, in); err != nil {
			t.Fatal(err)
		}
	}
	if pmTB.AveragePower() >= origTB.AveragePower() {
		t.Errorf("same-schedule gating saved nothing: pm %.1f, orig %.1f",
			pmTB.AveragePower(), origTB.AveragePower())
	}
}
