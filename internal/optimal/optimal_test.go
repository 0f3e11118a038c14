package optimal

import (
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/silage"
)

func compile(t *testing.T, src string) *cdfg.Graph {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d.Graph
}

// gapdemoSrc admits a schedule where only part of a branch cone is gated:
// at budget 3 the whole-branch heuristic must revert (gating x pushes the
// chain past the budget) while the exact solver gates y alone.
const gapdemoSrc = `
func gapdemo(a: num<8>, b: num<8>, c: num<8>, d: num<8>) out: num<8> =
begin
    s   = a > d;
    x   = a + b;
    y   = x + c;
    out = if s -> y || d fi;
end
`

func heuristicPower(t *testing.T, g *cdfg.Graph, cfg core.Config) (float64, *core.Result) {
	t.Helper()
	r, err := core.Schedule(g, cfg)
	if err != nil {
		t.Fatalf("core.Schedule: %v", err)
	}
	act, _ := power.AnalyzeExact(r.Graph, r.Guards)
	return act.WeightedPower(r.Graph, power.Weights), r
}

// bruteMinPower enumerates every dataflow-valid time assignment within the
// budget and returns the minimum power over the maximal gating each one
// realizes: the ground-truth optimum for nil resources. The caller must
// keep the graphs tiny.
func bruteMinPower(t *testing.T, g *cdfg.Graph, budget int) float64 {
	t.Helper()
	s := newSolver(g, Config{Budget: budget}, budget)
	if !s.computeWindows() {
		t.Fatalf("budget %d below critical path", budget)
	}
	// Guard against accidentally explosive enumerations.
	space := 1.0
	for _, id := range s.augOrder {
		if s.isOp[id] {
			space *= float64(s.alap[id] - s.asap[id] + 1)
		}
	}
	if space > 2e6 {
		t.Fatalf("brute-force space %.0f too large; shrink the fixture", space)
	}
	best := math.Inf(1)
	times := make([]int, s.n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(s.augOrder) {
			if p := s.evalKept(s.keptFromTimes(times)); p < best {
				best = p
			}
			return
		}
		id := s.augOrder[pos]
		ready := 0
		for _, p := range s.staticPreds[id] {
			if times[p] > ready {
				ready = times[p]
			}
		}
		if !s.isOp[id] {
			times[id] = ready + s.lat[id]
			rec(pos + 1)
			return
		}
		for step := ready + s.lat[id]; step <= s.alap[id]; step++ {
			times[id] = step
			rec(pos + 1)
		}
	}
	rec(0)
	return best
}

func TestAbsDiffKnownOptima(t *testing.T) {
	g := bench.AbsDiff().Graph()
	for _, tc := range []struct {
		budget int
		want   float64
	}{
		{2, 11}, // no gating fits: 4 + 3 + 3 + 1
		{3, 8},  // both subtractions gated: 4 + 1.5 + 1.5 + 1
	} {
		r, err := Schedule(g, Config{Budget: tc.budget})
		if err != nil {
			t.Fatalf("budget %d: %v", tc.budget, err)
		}
		if r.Power != tc.want {
			t.Errorf("budget %d: power = %v, want %v", tc.budget, r.Power, tc.want)
		}
		if !r.Cert.Optimal || r.Cert.LowerBound != r.Power {
			t.Errorf("budget %d: cert = %+v, want optimal with tight bound", tc.budget, r.Cert)
		}
		if !r.Exact {
			t.Errorf("budget %d: expected the exact evaluator", tc.budget)
		}
		if err := r.Schedule.Validate(nil); err != nil {
			t.Errorf("budget %d: invalid schedule: %v", tc.budget, err)
		}
	}
}

func TestGapdemoBeatsHeuristic(t *testing.T) {
	g := compile(t, gapdemoSrc)

	hp, _ := heuristicPower(t, g, core.Config{Budget: 3})
	if hp != 11 {
		t.Fatalf("heuristic power at budget 3 = %v, want 11 (whole-branch revert)", hp)
	}
	r, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Power != 9.5 {
		t.Errorf("optimal power at budget 3 = %v, want 9.5 (partial gating of y)", r.Power)
	}
	if !r.Cert.Optimal {
		t.Errorf("cert = %+v, want optimal", r.Cert)
	}
	if r.Power >= hp {
		t.Errorf("optimal %v did not beat heuristic %v", r.Power, hp)
	}

	r4, err := Schedule(g, Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Power != 8 {
		t.Errorf("optimal power at budget 4 = %v, want 8 (both adds gated)", r4.Power)
	}
}

func TestBruteForceDifferential(t *testing.T) {
	cases := []struct {
		name    string
		graph   *cdfg.Graph
		budgets []int
	}{
		{"absdiff", bench.AbsDiff().Graph(), []int{2, 3, 4}},
		{"gapdemo", compile(t, gapdemoSrc), []int{3, 4, 5}},
		{"dealer", bench.Dealer().Graph(), []int{4, 5}},
	}
	for _, tc := range cases {
		for _, budget := range tc.budgets {
			want := bruteMinPower(t, tc.graph, budget)
			r, err := Schedule(tc.graph, Config{Budget: budget})
			if err != nil {
				t.Fatalf("%s budget %d: %v", tc.name, budget, err)
			}
			if r.Power != want {
				t.Errorf("%s budget %d: solver power %v, brute force %v",
					tc.name, budget, r.Power, want)
			}
			if !r.Cert.Optimal {
				t.Errorf("%s budget %d: expected a completed search, cert %+v",
					tc.name, budget, r.Cert)
			}
		}
	}
}

func TestSeedDominatesHeuristic(t *testing.T) {
	for _, c := range bench.All() {
		g := c.Graph()
		for _, budget := range c.Budgets {
			hp, hr := heuristicPower(t, g, core.Config{Budget: budget})
			r, err := Schedule(g, Config{
				Budget:        budget,
				MaxExpansions: 5_000,
				Seed:          hr.Schedule.Time,
			})
			if err != nil {
				t.Fatalf("%s budget %d: %v", c.Name, budget, err)
			}
			if r.Power > hp {
				t.Errorf("%s budget %d: optimal %v exceeds heuristic %v",
					c.Name, budget, r.Power, hp)
			}
			if r.Cert.LowerBound > r.Power {
				t.Errorf("%s budget %d: bound %v above power %v",
					c.Name, budget, r.Cert.LowerBound, r.Power)
			}
			if err := r.Schedule.Validate(nil); err != nil {
				t.Errorf("%s budget %d: invalid schedule: %v", c.Name, budget, err)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := bench.Dealer().Graph()
	cfg := Config{Budget: 6}
	a, err := Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Power) != math.Float64bits(b.Power) {
		t.Errorf("power differs across runs: %v vs %v", a.Power, b.Power)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Errorf("schedule differs across runs:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	if a.Cert != b.Cert {
		t.Errorf("certificate differs across runs: %+v vs %+v", a.Cert, b.Cert)
	}
}

func TestTruncationCertificate(t *testing.T) {
	// At budget 4 the seed already matches the root bound, so even
	// MaxExpansions=1 certifies optimality without expanding a node.
	g := compile(t, gapdemoSrc)
	hp4, hr4 := heuristicPower(t, g, core.Config{Budget: 4})
	r4, err := Schedule(g, Config{
		Budget:        4,
		MaxExpansions: 1,
		Seed:          hr4.Schedule.Time,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cert.Optimal || r4.Cert.Expansions != 0 || r4.Power != hp4 {
		t.Errorf("budget 4: cert %+v power %v, want 0-expansion optimality at the seed power %v",
			r4.Cert, r4.Power, hp4)
	}

	// Unseeded at budget 3 the incumbent is the ungated baseline (11)
	// while the root bound is 9.5 (partial gating), so the search must
	// expand — and with a one-node budget it truncates into a sound
	// interval. (A heuristic seed would hide this: keptFromTimes recovers
	// the partial gating from the seed's times even though the pass
	// reverted its claim, closing the gap before any expansion.)
	r, err := Schedule(g, Config{Budget: 3, MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cert.Optimal {
		t.Fatalf("expected a truncated search with MaxExpansions=1, cert %+v", r.Cert)
	}
	if r.Power != 11 {
		t.Errorf("truncated power %v, want the ungated incumbent 11", r.Power)
	}
	if r.Cert.LowerBound > r.Power {
		t.Errorf("bound %v above power %v", r.Cert.LowerBound, r.Power)
	}
	// The bound must stay below the true optimum 9.5.
	if r.Cert.LowerBound > 9.5 {
		t.Errorf("lower bound %v above the true optimum 9.5", r.Cert.LowerBound)
	}
}

func TestFixedResources(t *testing.T) {
	g := bench.AbsDiff().Graph()
	res := sched.Resources{cdfg.ClassSub: 1}

	// Budget 2 forces both subtractions into step 1: infeasible with one
	// subtractor.
	_, err := Schedule(g, Config{Budget: 2, Resources: res})
	var ie *sched.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("budget 2 with one subtractor: err = %v, want InfeasibleError", err)
	}

	// Budget 3 fits one gated and one ungated subtraction.
	r, err := Schedule(g, Config{Budget: 3, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	if r.Power != 9.5 {
		t.Errorf("power = %v, want 9.5 (one of two subs gated)", r.Power)
	}
	if !r.Cert.Optimal {
		t.Errorf("cert = %+v, want optimal", r.Cert)
	}
	if err := r.Schedule.Validate(res); err != nil {
		t.Errorf("invalid schedule under resources: %v", err)
	}

	// Budget 4 with II=2 pipelines the two subtractions into distinct
	// modulo slots, so both can be gated.
	r, err = Schedule(g, Config{Budget: 4, II: 2, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	if r.Power != 8 {
		t.Errorf("pipelined power = %v, want 8 (both subs gated)", r.Power)
	}
	if err := r.Schedule.Validate(res); err != nil {
		t.Errorf("invalid pipelined schedule: %v", err)
	}
}

func TestNoMux(t *testing.T) {
	g := compile(t, `
func plain(a: num<8>, b: num<8>) out: num<8> =
begin
    out = a + b;
end
`)
	r, err := Schedule(g, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Gated != 0 || len(r.Guards) != 0 {
		t.Errorf("gating on a mux-free graph: %d guards", len(r.Guards))
	}
	want := power.Ungated(g).WeightedPower(g, power.Weights)
	if r.Power != want {
		t.Errorf("power = %v, want ungated %v", r.Power, want)
	}
	if !r.Cert.Optimal {
		t.Errorf("cert = %+v, want optimal", r.Cert)
	}
}

func TestErrors(t *testing.T) {
	g := bench.AbsDiff().Graph()
	if _, err := Schedule(g, Config{Budget: 0}); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := Schedule(g, Config{Budget: 4, II: 5}); err == nil {
		t.Error("II above budget accepted")
	}
	if _, err := Schedule(g, Config{Budget: 1}); err == nil {
		t.Error("budget below critical path accepted")
	}
}

func TestInvalidSeedIgnored(t *testing.T) {
	g := bench.AbsDiff().Graph()
	bogus := make(sched.Times, g.NumNodes())
	for i := range bogus {
		bogus[i] = 99 // violates every validation rule
	}
	r, err := Schedule(g, Config{Budget: 3, Seed: bogus})
	if err != nil {
		t.Fatal(err)
	}
	if r.Power != 8 {
		t.Errorf("power = %v, want 8", r.Power)
	}
}

// TestActivityOnSerializedGraph replays the generated-seed reproducer in
// testdata/regress/optimal-activity-topo.sil: a guarded select that is not
// a dataflow ancestor of the cone it gates. When power.AnalyzeExact took
// its order from the graph, evaluating that gating on the graph without
// the sel->top serializing edges read a stale execution word for the
// select. The walk now takes its order from the guards, so the solver
// evaluates on its own graph, and every solve here must still agree with
// its incumbent.
func TestActivityOnSerializedGraph(t *testing.T) {
	data, err := os.ReadFile("../../testdata/regress/optimal-activity-topo.sil")
	if err != nil {
		t.Fatal(err)
	}
	g := compile(t, string(data))
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Budget: cp + 1, MaxExpansions: 2000},
		{Budget: 2 * cp, II: cp, MaxExpansions: 2000}, // the failing pipelined point
	} {
		hp, hr := heuristicPower(t, g, core.Config{Budget: cfg.Budget, II: cfg.II})
		cfg.Seed = hr.Schedule.Time
		r, err := Schedule(g, cfg)
		if err != nil {
			t.Fatalf("budget %d ii %d: %v", cfg.Budget, cfg.II, err)
		}
		if r.Power > hp {
			t.Errorf("budget %d ii %d: optimal %v beats heuristic %v the wrong way", cfg.Budget, cfg.II, r.Power, hp)
		}
		if r.Cert.LowerBound > r.Power {
			t.Errorf("budget %d ii %d: lower bound %v above incumbent %v", cfg.Budget, cfg.II, r.Cert.LowerBound, r.Power)
		}
	}
}
