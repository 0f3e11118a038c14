package pmsynth

// One benchmark per table and figure of the paper, plus ablations. Each
// benchmark regenerates its experiment and reports the headline quantity
// as a custom metric, so `go test -bench . -benchmem` doubles as the
// reproduction harness:
//
//	Figure 1     -> BenchmarkFigure1AbsDiffTwoSteps    (pm-muxes = 0)
//	Figure 2     -> BenchmarkFigure2AbsDiffThreeSteps  (%power-reduction)
//	Table I      -> BenchmarkTableICircuitStatistics
//	Table II     -> BenchmarkTableIIPowerManagement/<circuit>@<steps>
//	Table III    -> BenchmarkTableIIISynopsysEstimate/<circuit>
//	§IV.A        -> BenchmarkAblationMuxOrdering/<order>
//	§IV.B        -> BenchmarkAblationPipelining/<variant>
//	weights      -> BenchmarkAblationDerivedWeights

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sim"
)

func BenchmarkCompileFrontend(b *testing.B) {
	src := bench.GCD().Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileDatapath compiles the kind of source the benchmark's
// sweep-datapath workload sends: a conditional-free 150-op generated
// design (about 4.4 KB, fixed seed). BenchmarkCompileFrontend's gcd is
// too small to show what compile costs on that workload.
func BenchmarkCompileDatapath(b *testing.B) {
	cfg := gen.Default()
	cfg.Ops = 150
	cfg.MuxFanIn = 1
	src := gen.Source(1, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileControl compiles the kind of source the benchmark's
// sweep-control workload sends: a 20-op generated design rich in
// conditionals (fixed seed).
func BenchmarkCompileControl(b *testing.B) {
	cfg := gen.Default()
	cfg.Ops = 20
	src := gen.Source(1, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1AbsDiffTwoSteps(b *testing.B) {
	c := bench.AbsDiff()
	var managed int
	for i := 0; i < b.N; i++ {
		r, err := core.Schedule(c.Graph(), core.Config{Budget: 2, Weights: power.Weights})
		if err != nil {
			b.Fatal(err)
		}
		managed = r.NumManaged()
	}
	b.ReportMetric(float64(managed), "pm-muxes")
}

func BenchmarkFigure2AbsDiffThreeSteps(b *testing.B) {
	c := bench.AbsDiff()
	var red float64
	for i := 0; i < b.N; i++ {
		r, err := core.Schedule(c.Graph(), core.Config{Budget: 3, Weights: power.Weights})
		if err != nil {
			b.Fatal(err)
		}
		act, _ := power.AnalyzeExact(r.Graph, r.Guards)
		red = 100 * power.Reduction(r.Graph, act, power.Weights)
	}
	b.ReportMetric(red, "%power-reduction")
}

func BenchmarkTableICircuitStatistics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range bench.All() {
			if _, err := c.Graph().ComputeStats(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTableIIPowerManagement(b *testing.B) {
	for _, c := range bench.All() {
		for _, budget := range c.Budgets {
			name := fmt.Sprintf("%s@%d", c.Name, budget)
			c, budget := c, budget
			b.Run(name, func(b *testing.B) {
				var row Row
				for i := 0; i < b.N; i++ {
					s, err := Synthesize(c.Design, Options{Budget: budget})
					if err != nil {
						b.Fatal(err)
					}
					row = s.Row()
				}
				b.ReportMetric(row.PowerReductionPct, "%power-reduction")
				b.ReportMetric(float64(row.PMMuxes), "pm-muxes")
				b.ReportMetric(row.AreaIncrease, "area-ratio")
			})
		}
	}
}

func BenchmarkTableIIISynopsysEstimate(b *testing.B) {
	for _, c := range bench.All() {
		if c.PaperIII.Steps == 0 {
			continue
		}
		c := c
		b.Run(c.Name, func(b *testing.B) {
			var rep chip.Report
			for i := 0; i < b.N; i++ {
				s, err := Synthesize(c.Design, Options{Budget: c.PaperIII.Steps})
				if err != nil {
					b.Fatal(err)
				}
				if rep, err = s.GateLevelReport(60, 11); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.PowerReductionPct(), "%power-reduction")
			b.ReportMetric(rep.AreaIncrease(), "area-ratio")
		})
	}
}

func BenchmarkAblationPipelining(b *testing.B) {
	c := bench.Cordic()
	cp := c.PaperStats.CriticalPath
	variants := []struct {
		name       string
		budget, ii int
	}{
		{"plain", cp, cp},
		{"pipe2", 2 * cp, cp},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var managed int
			for i := 0; i < b.N; i++ {
				r, err := core.Schedule(c.Graph(), core.Config{Budget: v.budget, II: v.ii, Weights: power.Weights})
				if err != nil {
					b.Fatal(err)
				}
				managed = r.NumManaged()
			}
			b.ReportMetric(float64(managed), "pm-muxes")
		})
	}
}

// BenchmarkAblationDerivedWeights swaps the paper's measured weight table
// for one derived from this repository's own gate-level units (energy ~
// area proxy) and reports how the headline vender reduction shifts.
func BenchmarkAblationDerivedWeights(b *testing.B) {
	c := bench.Vender()
	derived := power.DeriveWeights(map[cdfg.Class]float64{
		cdfg.ClassMux:  alloc.UnitArea(cdfg.ClassMux, 8),
		cdfg.ClassComp: alloc.UnitArea(cdfg.ClassComp, 8),
		cdfg.ClassAdd:  alloc.UnitArea(cdfg.ClassAdd, 8),
		cdfg.ClassSub:  alloc.UnitArea(cdfg.ClassSub, 8),
		cdfg.ClassMul:  alloc.UnitArea(cdfg.ClassMul, 8),
	})
	var red float64
	for i := 0; i < b.N; i++ {
		r, err := core.Schedule(c.Graph(), core.Config{Budget: 6, Weights: derived})
		if err != nil {
			b.Fatal(err)
		}
		act, _ := power.AnalyzeExact(r.Graph, r.Guards)
		red = 100 * power.Reduction(r.Graph, act, derived)
	}
	b.ReportMetric(red, "%power-reduction-derived")
}

// BenchmarkSchedulerThroughput measures the raw scheduling speed on the
// largest benchmark (cordic: ~300 nodes, 47 muxes).
func BenchmarkSchedulerThroughput(b *testing.B) {
	c := bench.Cordic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Schedule(c.Graph(), core.Config{Budget: 52, Weights: power.Weights}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGCD measures the design-space sweep engine on the gcd
// benchmark (12 configurations: budgets 5-10 x two mux orders), serial
// vs parallel, so later PRs can track the concurrency speedup.
func BenchmarkSweepGCD(b *testing.B) {
	c := bench.GCD()
	spec := SweepSpec{
		BudgetMin: 5, BudgetMax: 10,
		Orders: []Order{OrderOutputsFirst, OrderGreedyWeight},
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			spec := spec
			spec.Workers = mode.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sweep(c.Design, spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Points) != 12 {
					b.Fatalf("%d points, want 12", len(res.Points))
				}
			}
		})
	}
}

// BenchmarkGateLevelSimulation measures the toggle simulator itself.
func BenchmarkGateLevelSimulation(b *testing.B) {
	syn, err := Synthesize(bench.Vender().Design, Options{Budget: 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := syn.GateLevelReport(20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepPerBudget times one full pipeline run per circuit at each
// Table II budget — the per-configuration unit cost behind the committed
// BENCH_sweep.json. It synthesizes directly (no sweep engine), so every
// iteration pays the real pipeline.
func BenchmarkSweepPerBudget(b *testing.B) {
	for _, c := range bench.All() {
		for _, budget := range c.Budgets {
			c, budget := c, budget
			b.Run(fmt.Sprintf("%s@%d", c.Name, budget), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Synthesize(c.Design, Options{Budget: budget}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCordicPerBudget isolates the historical outlier: cordic's
// per-configuration pipeline cost at each of its Table II budgets.
func BenchmarkCordicPerBudget(b *testing.B) {
	c := bench.Cordic()
	for _, budget := range c.Budgets {
		budget := budget
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(c.Design, Options{Budget: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepDatapath runs the flow work of the benchmark's
// sweep-datapath workload in process: conditional-free 150-op generated
// designs (fixed seeds), each swept serially over budgets cp..cp+3. One
// op is one sweep of every design; compiling them is set-up. Profile it
// with -cpuprofile to attribute the flow layers without a daemon.
func BenchmarkSweepDatapath(b *testing.B) {
	cfg := gen.Default()
	cfg.Ops = 150
	cfg.MuxFanIn = 1
	var designs []*Design
	var specs []SweepSpec
	for seed := int64(1); seed <= 4; seed++ {
		d, err := Compile(gen.Source(seed, cfg))
		if err != nil {
			b.Fatal(err)
		}
		cp, err := CriticalPath(d)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, d)
		specs = append(specs, SweepSpec{BudgetMin: cp, BudgetMax: cp + 3, Workers: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range designs {
			res, err := Sweep(d, specs[j])
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) != 4 {
				b.Fatalf("%d points, want 4", len(res.Points))
			}
		}
	}
}

// BenchmarkSweepControl runs the flow work of the benchmark's
// sweep-control workload in process: conditional-rich 20-op generated
// designs (fixed seeds, at most 26 conditionals each, counted as the
// workload counts them), each swept serially over budgets cp..cp+3. One op
// is one sweep of every design; compiling them is set-up. Profile it with
// -cpuprofile to attribute the PM pass without a daemon.
func BenchmarkSweepControl(b *testing.B) {
	cfg := gen.Default()
	cfg.Ops = 20
	var designs []*Design
	var specs []SweepSpec
	for seed := int64(1); len(designs) < 16; seed++ {
		src := gen.Source(seed, cfg)
		if strings.Count(src, "(if ") > 26 {
			continue
		}
		d, err := Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := CriticalPath(d)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, d)
		specs = append(specs, SweepSpec{BudgetMin: cp, BudgetMax: cp + 3, Workers: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range designs {
			res, err := Sweep(d, specs[j])
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) != 4 {
				b.Fatalf("%d points, want 4", len(res.Points))
			}
		}
	}
}

// BenchmarkExactActivityAnalysis measures the 2^16-outcome exact analysis
// on cordic.
func BenchmarkExactActivityAnalysis(b *testing.B) {
	c := bench.Cordic()
	r, err := core.Schedule(c.Graph(), core.Config{Budget: 52, Weights: power.Weights})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, exact := power.AnalyzeExact(r.Graph, r.Guards); !exact {
			b.Fatal("expected exact analysis")
		}
	}
}

// BenchmarkExactActivityOneGroup measures the exact analysis where
// grouping the selects saves nothing: one group of 20 selects, a nested
// chain, with 100 operations guarded on the innermost select.
func BenchmarkExactActivityOneGroup(b *testing.B) {
	g := cdfg.New("chain")
	x := cdfg.MustAdd(g.AddInput("x"))
	y := cdfg.MustAdd(g.AddInput("y"))
	guards := make(sim.Guards)
	sel := cdfg.MustAdd(g.AddOp(cdfg.KindGt, "c0", x, y))
	for i := 1; i < 20; i++ {
		inner := cdfg.MustAdd(g.AddOp(cdfg.KindGt, fmt.Sprintf("c%d", i), x, y))
		guards[inner] = []sim.Guard{{Sel: sel, WhenTrue: true}}
		sel = inner
	}
	for i := 0; i < 100; i++ {
		op := cdfg.MustAdd(g.AddOp(cdfg.KindAdd, fmt.Sprintf("t%d", i), x, y))
		guards[op] = []sim.Guard{{Sel: sel, WhenTrue: i%2 == 0}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, exact := power.AnalyzeExact(g, guards); !exact {
			b.Fatal("expected exact analysis")
		}
	}
}
