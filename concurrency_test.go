package pmsynth

// Library-safety tests: Synthesize must not mutate shared state, so
// concurrent synthesis of the same design is safe and deterministic — and
// the sweep engine built on top of it must be deterministic regardless of
// worker count, cancellable, and race-free across circuits.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/chip"
)

func TestConcurrentSynthesisDeterministic(t *testing.T) {
	c := bench.Vender()
	const workers = 8
	results := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			syn, err := Synthesize(c.Design, Options{Budget: 6})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			v, err := syn.VHDL()
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d produced different VHDL", i)
		}
	}
}

// gcdSweepSpec enumerates 12 configurations (6 budgets x 2 orders), the
// multi-axis spec the sweep tests share.
func gcdSweepSpec(workers int) SweepSpec {
	return SweepSpec{
		BudgetMin: 5, BudgetMax: 10,
		Orders:  []Order{OrderOutputsFirst, OrderGreedyWeight},
		Workers: workers,
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	c := bench.GCD()
	var want *SweepResult
	for _, workers := range []int{1, 2, 8} {
		res, err := Sweep(c.Design, gcdSweepSpec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Points) != 12 {
			t.Fatalf("workers=%d: %d points, want 12", workers, len(res.Points))
		}
		if want == nil {
			want = res
			continue
		}
		for i := range res.Points {
			p, q := &res.Points[i], &want.Points[i]
			if (p.Err == nil) != (q.Err == nil) {
				t.Fatalf("workers=%d point %d: error mismatch (%v vs %v)", workers, i, p.Err, q.Err)
			}
			if p.Err != nil {
				continue
			}
			if p.Row != q.Row {
				t.Errorf("workers=%d point %d: row %+v differs from workers=1 %+v", workers, i, p.Row, q.Row)
			}
			v1, err1 := p.Synthesis.VHDL()
			v2, err2 := q.Synthesis.VHDL()
			if err1 != nil || err2 != nil || v1 != v2 {
				t.Errorf("workers=%d point %d: VHDL differs from workers=1", workers, i)
			}
		}
	}
}

// TestSweepMatchesSerialSynthesize is the engine's ground truth: a
// concurrent sweep returns exactly what running Synthesize on each
// configuration serially returns, in enumeration order.
func TestSweepMatchesSerialSynthesize(t *testing.T) {
	c := bench.GCD()
	res, err := Sweep(c.Design, gcdSweepSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 8 {
		t.Fatalf("spec enumerates %d configurations, want >= 8", len(res.Points))
	}
	for i := range res.Points {
		p := &res.Points[i]
		syn, err := Synthesize(c.Design, p.Options)
		if (err == nil) != (p.Err == nil) {
			t.Fatalf("point %d: sweep err %v, serial err %v", i, p.Err, err)
		}
		if err != nil {
			continue
		}
		if p.Row != syn.Row() {
			t.Errorf("point %d (%+v): sweep row %+v, serial row %+v", i, p.Options, p.Row, syn.Row())
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	c := bench.GCD()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SweepContext(ctx, c.Design, gcdSweepSpec(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled sweep returned a result table")
	}
}

func TestSweepRecordsPerPointErrors(t *testing.T) {
	c := bench.GCD() // critical path 5: budget 4 is infeasible
	res, err := Sweep(c.Design, SweepSpec{BudgetMin: 4, BudgetMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Err == nil {
		t.Error("infeasible budget 4 did not record an error")
	}
	if res.Points[1].Err != nil || res.Points[2].Err != nil {
		t.Errorf("feasible budgets failed: %v, %v", res.Points[1].Err, res.Points[2].Err)
	}
	if best := res.Best(MaxPowerReduction); best == nil || best.Options.Budget == 4 {
		t.Errorf("Best returned %+v", best)
	}
	for _, p := range res.Pareto() {
		if p.Err != nil {
			t.Error("Pareto returned a failed point")
		}
	}
}

// TestSweepMultiCircuitParallel drives several circuits' sweeps at once —
// the -race companion of the determinism tests, exercising the shared
// analysis memo and the worker pools together.
func TestSweepMultiCircuitParallel(t *testing.T) {
	circuits := []*bench.Circuit{bench.Dealer(), bench.GCD(), bench.Vender()}
	var wg sync.WaitGroup
	for _, c := range circuits {
		wg.Add(1)
		go func(c *bench.Circuit) {
			defer wg.Done()
			spec := SweepSpec{Budgets: c.Budgets}
			res, err := Sweep(c.Design, spec)
			if err != nil {
				t.Errorf("%s: %v", c.Name, err)
				return
			}
			for i := range res.Points {
				if res.Points[i].Err != nil {
					t.Errorf("%s point %d: %v", c.Name, i, res.Points[i].Err)
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestSynthesizeDoesNotMutateDesign(t *testing.T) {
	c := bench.GCD()
	before := c.Graph().DOT()
	if _, err := Synthesize(c.Design, Options{Budget: 7}); err != nil {
		t.Fatal(err)
	}
	if c.Graph().DOT() != before {
		t.Error("Synthesize mutated the input design")
	}
	if n := len(c.Graph().ControlEdges()); n != 0 {
		t.Errorf("input design gained %d control edges", n)
	}
}

// artifacts is everything a point builds on demand from its controllers.
type artifacts struct {
	vhdl, verilog, baselineVHDL string
	gates                       chip.Report
}

// onDemandArtifacts emits the RTL of both designs and measures the
// gate-level report of syn.
func onDemandArtifacts(syn *Synthesis) (artifacts, error) {
	var a artifacts
	var err error
	if a.vhdl, err = syn.VHDL(); err != nil {
		return a, err
	}
	if a.verilog, err = syn.Verilog(); err != nil {
		return a, err
	}
	if a.baselineVHDL, err = syn.BaselineVHDL(); err != nil {
		return a, err
	}
	a.gates, err = syn.GateLevelReport(12, 3)
	return a, err
}

// TestSharedSynthesisOnDemandArtifacts: a sweep point's controllers are
// built on first use, so concurrent readers of one Synthesis share that
// build. Every reader must see what a serial reader of a fresh point sees.
// CI repeats this test under the race detector.
func TestSharedSynthesisOnDemandArtifacts(t *testing.T) {
	c := bench.GCD()
	spec := SweepSpec{Budgets: []int{7}, Workers: 1}
	sweep := func() *Synthesis {
		res, err := Sweep(c.Design, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Points[0].Err != nil {
			t.Fatal(res.Points[0].Err)
		}
		return res.Points[0].Synthesis
	}
	want, err := onDemandArtifacts(sweep())
	if err != nil {
		t.Fatal(err)
	}

	shared := sweep()
	const readers = 8
	got := make([]artifacts, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := onDemandArtifacts(shared)
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
			got[i] = a
		}(i)
	}
	wg.Wait()
	for i, a := range got {
		if a != want {
			t.Errorf("reader %d: on-demand artifacts differ from the serial reference", i)
		}
	}
}
