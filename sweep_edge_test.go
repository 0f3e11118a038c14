package pmsynth

// Edge-of-the-envelope sweep behavior: deterministic Best tie-breaking,
// zero-point and single-point results, progress reporting, per-call
// recomputation, and the content-addressed fingerprints the serving layer
// keys on.

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
)

// rowPoints builds a synthetic successful result table from summary rows.
func rowPoints(rows ...Row) *SweepResult {
	sr := &SweepResult{Points: make([]SweepPoint, len(rows))}
	for i, r := range rows {
		sr.Points[i].Options = Options{Budget: i + 1}
		sr.Points[i].Row = r
	}
	return sr
}

func TestBestTieBreaksTowardEarliestEnumeration(t *testing.T) {
	// Three points, the first two scoring identically on power: the
	// earliest enumerated one must win, regardless of later equals.
	sr := rowPoints(
		Row{Steps: 4, PowerReductionPct: 30},
		Row{Steps: 5, PowerReductionPct: 30},
		Row{Steps: 6, PowerReductionPct: 10},
	)
	best := sr.Best(MaxPowerReduction)
	if best == nil || best != &sr.Points[0] {
		t.Fatalf("Best = %+v, want the earliest of the tied points", best)
	}
	// The tie-break is positional, not value-based: reversing the table
	// moves the winner with the position.
	rev := rowPoints(
		Row{Steps: 6, PowerReductionPct: 10},
		Row{Steps: 5, PowerReductionPct: 30},
		Row{Steps: 4, PowerReductionPct: 30},
	)
	if best := rev.Best(MaxPowerReduction); best != &rev.Points[1] {
		t.Fatalf("Best = %+v, want index 1 (earliest tied)", best)
	}
}

func TestBestSkipsNaNScores(t *testing.T) {
	sr := rowPoints(
		Row{PowerReductionPct: math.NaN()},
		Row{PowerReductionPct: 5},
	)
	// A NaN first score must not poison the comparison chain.
	if best := sr.Best(MaxPowerReduction); best != &sr.Points[1] {
		t.Fatalf("Best = %+v, want the finite-scored point", best)
	}
	allNaN := rowPoints(Row{PowerReductionPct: math.NaN()})
	if best := allNaN.Best(MaxPowerReduction); best != nil {
		t.Fatalf("Best over all-NaN scores = %+v, want nil", best)
	}
}

func TestEmptySweepResult(t *testing.T) {
	sr := &SweepResult{}
	if best := sr.Best(MaxPowerReduction); best != nil {
		t.Fatalf("Best on zero points = %+v, want nil", best)
	}
	if pareto := sr.Pareto(); len(pareto) != 0 {
		t.Fatalf("Pareto on zero points = %v, want empty", pareto)
	}
	table := sr.Table()
	if !strings.Contains(table, "0 configurations") {
		t.Fatalf("Table on zero points = %q", table)
	}
}

func TestAllFailedSweepResult(t *testing.T) {
	// Budget 1 is below gcd's critical path of 5: the single point fails,
	// leaving a non-empty table with zero successful points.
	c := bench.GCD()
	sr, err := Sweep(c.Design, SweepSpec{Budgets: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || sr.Points[0].Err == nil {
		t.Fatalf("points = %+v, want one failed point", sr.Points)
	}
	if best := sr.Best(MaxPowerReduction); best != nil {
		t.Fatalf("Best over all-failed points = %+v, want nil", best)
	}
	if pareto := sr.Pareto(); len(pareto) != 0 {
		t.Fatalf("Pareto over all-failed points = %v, want empty", pareto)
	}
	if table := sr.Table(); !strings.Contains(table, "error:") {
		t.Fatalf("Table lost the failure: %q", table)
	}
}

// TestSweepTableLayout pins the exact text of Table, which pmsynthd
// serves verbatim as view=table: a column change must show up here as a
// reviewed diff rather than pass unnoticed.
func TestSweepTableLayout(t *testing.T) {
	sr, err := Sweep(bench.GCD().Design, SweepSpec{Budgets: []int{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `SWEEP gcd — 2 configurations
Budget  II  Order           Steps PM  Area    MUX   COMP      +      -      *    PowerRed
     1   0  outputs-first   error: flow: pass "schedule": core: budget 1 below the critical path
     5   0  outputs-first       5  3  1.36    4.25   2.00   0.00   0.25   0.00   23.53%
`
	if got := sr.Table(); got != want {
		t.Fatalf("Table() =\n%s\nwant\n%s", got, want)
	}
}

func TestSinglePointPareto(t *testing.T) {
	c := bench.GCD()
	sr, err := Sweep(c.Design, SweepSpec{Budgets: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(sr.Points))
	}
	pareto := sr.Pareto()
	if len(pareto) != 1 || pareto[0] != &sr.Points[0] {
		t.Fatalf("single-point Pareto = %v, want exactly the point", pareto)
	}
	// And the single point is trivially the best under every objective.
	for _, obj := range []Objective{MaxPowerReduction, MinAreaIncrease, MinSteps} {
		if best := sr.Best(obj); best != &sr.Points[0] {
			t.Fatalf("Best = %+v, want the only point", best)
		}
	}
}

func TestSweepProgressReporting(t *testing.T) {
	c := bench.GCD()
	var mu sync.Mutex
	var ticks []int
	var total int
	sr, err := SweepContextProgress(context.Background(), c.Design,
		SweepSpec{BudgetMin: 5, BudgetMax: 9, Workers: 2},
		func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			ticks = append(ticks, done)
			total = tot
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 5 || total != 5 {
		t.Fatalf("points = %d, total = %d, want 5", len(sr.Points), total)
	}
	if len(ticks) != 6 || ticks[0] != 0 {
		t.Fatalf("ticks = %v, want initial 0 plus one per configuration", ticks)
	}
	// Every completion count appears exactly once (order may vary with
	// worker scheduling; the counter itself never skips or repeats).
	seen := make(map[int]bool)
	for _, d := range ticks {
		if seen[d] {
			t.Fatalf("duplicate progress tick %d in %v", d, ticks)
		}
		seen[d] = true
	}
	for d := 0; d <= 5; d++ {
		if !seen[d] {
			t.Fatalf("missing progress tick %d in %v", d, ticks)
		}
	}
	// A progressed sweep returns the same table as a silent one.
	silent, err := Sweep(c.Design, SweepSpec{BudgetMin: 5, BudgetMax: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Table() != silent.Table() {
		t.Fatal("progress observation changed the sweep results")
	}
}

// TestSweepRecomputesEveryPoint pins that every Sweep call evaluates all
// of its points and returns Contexts no other call holds. The oracle's
// worker-count determinism stage compares a workers=1 sweep with a
// workers=4 sweep of one design, which proves nothing if the second is
// served from the first. The repeated sweep must still reproduce the
// same table, and no returned Context may keep a cancellation context.
func TestSweepRecomputesEveryPoint(t *testing.T) {
	d := bench.GCD().Design
	spec := SweepSpec{BudgetMin: 5, BudgetMax: 8, Workers: 1}
	first, err := Sweep(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 4
	second, err := Sweep(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.Table(), second.Table(); a != b {
		t.Fatalf("workers=1 table:\n%s\nworkers=4 table:\n%s", a, b)
	}
	for i := range first.Points {
		a, b := first.Points[i].Synthesis, second.Points[i].Synthesis
		if a == nil || b == nil {
			t.Fatalf("point %d failed: %v / %v", i, first.Points[i].Err, second.Points[i].Err)
		}
		if a.Flow == b.Flow {
			t.Errorf("point %d: the second sweep returned the first sweep's pipeline context", i)
		}
		if a.Flow.Ctx != nil || b.Flow.Ctx != nil {
			t.Errorf("point %d: a returned Context keeps a cancellation context", i)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	src := bench.GCD().Source
	opt := Options{Budget: 6, Resources: map[cdfg.Class]int{cdfg.ClassSub: 1, cdfg.ClassMux: 2}}
	// Same request, same fingerprint — including across map re-creation.
	same := Options{Budget: 6, Resources: map[cdfg.Class]int{cdfg.ClassMux: 2, cdfg.ClassSub: 1}}
	if Fingerprint(src, opt) != Fingerprint(src, same) {
		t.Fatal("semantically equal options fingerprint differently")
	}
	distinct := map[string]string{
		"base":         Fingerprint(src, opt),
		"other budget": Fingerprint(src, Options{Budget: 7, Resources: opt.Resources}),
		"other source": Fingerprint(src+"# comment\n", opt),
		"other order":  Fingerprint(src, Options{Budget: 6, Order: OrderGreedyWeight, Resources: opt.Resources}),
		"no resources": Fingerprint(src, Options{Budget: 6}),
	}
	seen := make(map[string]string)
	for name, fp := range distinct {
		if len(fp) != 64 {
			t.Fatalf("%s: fingerprint %q is not a hex SHA-256", name, fp)
		}
		if prev, ok := seen[fp]; ok {
			t.Fatalf("collision between %q and %q", name, prev)
		}
		seen[fp] = name
	}
}

func TestSweepFingerprintIgnoresWorkers(t *testing.T) {
	src := bench.GCD().Source
	spec := SweepSpec{BudgetMin: 5, BudgetMax: 9, IIs: []int{0, 2}}
	w1, w8 := spec, spec
	w1.Workers = 1
	w8.Workers = 8
	if SweepFingerprint(src, w1) != SweepFingerprint(src, w8) {
		t.Fatal("worker count changed the sweep fingerprint, but never changes results")
	}
	// Axis value order is semantic (it fixes enumeration order and hence
	// Best tie-breaking), so it must change the fingerprint.
	swapped := spec
	swapped.IIs = []int{2, 0}
	if SweepFingerprint(src, spec) == SweepFingerprint(src, swapped) {
		t.Fatal("axis reordering did not change the sweep fingerprint")
	}
	if SweepFingerprint(src, spec) == Fingerprint(src, Options{Budget: 5}) {
		t.Fatal("sweep and synthesize fingerprints share a namespace")
	}
}
