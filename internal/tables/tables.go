package tables

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/power"
	"repro/internal/sched"
)

// TableI renders the circuit statistics table. The reconstructed circuits
// match the paper exactly, which the bench package asserts at build time.
func TableI() (string, error) {
	var b strings.Builder
	b.WriteString("TABLE I — CIRCUIT STATISTICS (measured == paper by construction)\n")
	b.WriteString("Circuit   CritPath  MUX  COMP    +    -    *\n")
	for _, c := range bench.All() {
		st, err := c.Graph().ComputeStats()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-9s %8d %4d %5d %4d %4d %4d\n",
			c.Name, st.CriticalPath,
			st.Count[cdfg.ClassMux], st.Count[cdfg.ClassComp],
			st.Count[cdfg.ClassAdd], st.Count[cdfg.ClassSub], st.Count[cdfg.ClassMul])
	}
	return b.String(), nil
}

// RowII is one measured Table II row.
type RowII struct {
	Circuit                  string
	Steps                    int
	PMMuxes                  int
	AreaIncr                 float64
	Mux, Comp, Add, Sub, Mul float64
	PowerRedPct              float64
}

// rowFromContext projects one completed pipeline context into a Table II
// row.
func rowFromContext(c *bench.Circuit, fc *flow.Context) RowII {
	ops := fc.Activity.ExpectedOps(fc.PM.Graph)
	return RowII{
		Circuit:     c.Name,
		Steps:       fc.Config.Budget,
		PMMuxes:     fc.PM.NumManaged(),
		AreaIncr:    alloc.AreaIncrease(fc.Binding, fc.BaselineBinding, c.Design.Width),
		Mux:         ops[cdfg.ClassMux],
		Comp:        ops[cdfg.ClassComp],
		Add:         ops[cdfg.ClassAdd],
		Sub:         ops[cdfg.ClassSub],
		Mul:         ops[cdfg.ClassMul],
		PowerRedPct: 100 * power.Reduction(fc.PM.Graph, fc.Activity, power.Weights),
	}
}

// MeasureRowII runs the full PM flow for one circuit and budget through the
// standard pass pipeline.
func MeasureRowII(c *bench.Circuit, budget int) (RowII, error) {
	fc := &flow.Context{
		Graph:  c.Graph(),
		Width:  c.Design.Width,
		Config: core.Config{Budget: budget, Weights: power.Weights},
	}
	if err := flow.Standard().Run(fc); err != nil {
		return RowII{}, err
	}
	return rowFromContext(c, fc), nil
}

// MeasureTableII evaluates a circuit's full budget sweep concurrently
// through the sweep engine, one row per budget in order.
func MeasureTableII(c *bench.Circuit, budgets []int) ([]RowII, error) {
	cfgs := make([]core.Config, len(budgets))
	for i, budget := range budgets {
		cfgs[i] = core.Config{Budget: budget, Weights: power.Weights}
	}
	ctxs, err := flow.RunAll(context.Background(), c.Graph(), c.Design.Width, cfgs, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]RowII, len(ctxs))
	for i, fc := range ctxs {
		if fc.Err != nil {
			return nil, fmt.Errorf("%s@%d: %w", c.Name, budgets[i], fc.Err)
		}
		rows[i] = rowFromContext(c, fc)
	}
	return rows, nil
}

// TableII renders the power management sweep with the paper's rows
// interleaved for comparison. Each circuit's budget sweep runs through the
// concurrent sweep engine.
func TableII() (string, error) {
	var b strings.Builder
	b.WriteString("TABLE II — AVERAGE OPERATIONS EXECUTED WITH POWER MANAGEMENT\n")
	b.WriteString("(paper rows shown beneath measured rows; circuits are reconstructions,\n")
	b.WriteString(" so shapes — monotone growth, saturation, op mix — are the comparison)\n")
	b.WriteString("Circuit  Steps PM  Area    MUX   COMP      +      -      *    PowerRed\n")
	for _, c := range bench.All() {
		rows, err := MeasureTableII(c, c.Budgets)
		if err != nil {
			return "", err
		}
		for _, row := range rows {
			fmt.Fprintf(&b, "%-8s %3d  %2d  %.2f  %6.2f %6.2f %6.2f %6.2f %6.2f  %6.2f%%\n",
				row.Circuit, row.Steps, row.PMMuxes, row.AreaIncr,
				row.Mux, row.Comp, row.Add, row.Sub, row.Mul, row.PowerRedPct)
		}
		for _, p := range c.PaperII {
			fmt.Fprintf(&b, "  paper %3d  %2d  %.2f  %6.2f %6.2f %6.2f %6.2f %6.2f  %6.2f%%\n",
				p.Steps, p.PMMuxes, p.AreaIncr, p.Mux, p.Comp, p.Add, p.Sub, p.Mul, p.PowerRed)
		}
	}
	return b.String(), nil
}

// TableOptimal renders the optimality-gap study: the paper's heuristic
// scheduler against the exact branch-and-bound minimum at every circuit
// and budget of Table II. Certified rows are proven minima; truncated rows
// report the best schedule found (never worse than the heuristic, which
// seeds the search) together with the solver's sound lower bound after
// maxExpansions node expansions (0 uses the solver default).
func TableOptimal(maxExpansions int) (string, error) {
	var b strings.Builder
	b.WriteString("OPTIMALITY GAP — heuristic vs exact minimum switched capacitance\n")
	b.WriteString("(power = expected weighted ops per sample under the paper's weights)\n")
	b.WriteString("Circuit  Steps  Heuristic   Optimal   Gap%  Certificate\n")
	p := flow.New(flow.SchedulePass{}, flow.BindPass{}, flow.BaselinePass{},
		flow.ActivityPass{}, flow.OptimalPass{MaxExpansions: maxExpansions})
	for _, c := range bench.All() {
		cfgs := make([]core.Config, len(c.Budgets))
		for i, budget := range c.Budgets {
			cfgs[i] = core.Config{Budget: budget, Weights: power.Weights}
		}
		ctxs, err := flow.RunAllPipeline(context.Background(), p, c.Graph(), c.Design.Width, cfgs, 0)
		if err != nil {
			return "", err
		}
		for i, fc := range ctxs {
			if fc.Err != nil {
				return "", fmt.Errorf("%s@%d: %w", c.Name, c.Budgets[i], fc.Err)
			}
			hp := fc.Activity.WeightedPower(fc.PM.Graph, power.Weights)
			opt := fc.Optimal
			gap := 0.0
			if hp > 0 {
				gap = 100 * (hp - opt.Power) / hp
			}
			cert := "certified"
			if !opt.Cert.Optimal {
				cert = fmt.Sprintf("bound %.4g", opt.Cert.LowerBound)
			}
			fmt.Fprintf(&b, "%-8s %3d   %8.2f  %8.2f  %5.2f  %s\n",
				c.Name, c.Budgets[i], hp, opt.Power, gap, cert)
		}
	}
	return b.String(), nil
}

// TableIII renders the gate-level comparison (Synopsys DesignPower
// substitute) for the circuits the paper reports: dealer@6, gcd@7,
// vender@6.
func TableIII(samples int, seed int64) (string, error) {
	var b strings.Builder
	b.WriteString("TABLE III — GATE-LEVEL AREA AND POWER (toggle-count estimator)\n")
	b.WriteString("(absolute units differ from the paper's library; compare ratios)\n")
	b.WriteString("Circuit  Steps  AreaOrig  AreaNew  Ratio   PowerOrig  PowerNew  Red%\n")
	for _, c := range bench.All() {
		if c.PaperIII.Steps == 0 {
			continue
		}
		rep, err := chip.Compare(c.Graph(), c.PaperIII.Steps, c.Design.Width, samples, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %5d  %8.0f %8.0f  %.2f   %9.1f %9.1f  %4.1f%%\n",
			c.Name, rep.Steps, rep.AreaOrig, rep.AreaNew, rep.AreaIncrease(),
			rep.PowerOrig, rep.PowerNew, rep.PowerReductionPct())
		p := c.PaperIII
		fmt.Fprintf(&b, "  paper %5d  %8.0f %8.0f  %.2f   %9.1f %9.1f  %4.1f%%\n",
			p.Steps, p.AreaOrig, p.AreaNew, p.AreaNew/p.AreaOrig,
			p.PowerOrig, p.PowerNew, p.PowerRedPct)
	}
	return b.String(), nil
}

// Figures renders the |a-b| example of Figures 1 and 2: the unique
// two-step schedule, the traditional three-step schedule, and the power
// managed three-step schedule.
func Figures() (string, error) {
	var b strings.Builder
	c := bench.AbsDiff()
	g := c.Graph()

	b.WriteString("FIGURE 1 — |a-b| with 2 control steps (no PM possible)\n")
	r2, err := core.Schedule(g, core.Config{Budget: 2, Weights: power.Weights})
	if err != nil {
		return "", err
	}
	b.WriteString(r2.Schedule.String())
	fmt.Fprintf(&b, "power managed muxes: %d (the schedule is unique)\n\n", r2.NumManaged())

	b.WriteString("FIGURE 2(a) — traditional 3-step schedule (one subtractor)\n")
	s3, res3, err := core.Baseline(g, 3, 0)
	if err != nil {
		return "", err
	}
	b.WriteString(s3.String())
	fmt.Fprintf(&b, "resources: %v; both subtractions always execute\n\n", res3)

	b.WriteString("FIGURE 2(b) — power managed 3-step schedule (two subtractors)\n")
	r3, err := core.Schedule(g, core.Config{Budget: 3, Weights: power.Weights})
	if err != nil {
		return "", err
	}
	b.WriteString(r3.Schedule.String())
	act, _ := power.AnalyzeExact(r3.Graph, r3.Guards)
	ops := act.ExpectedOps(r3.Graph)
	fmt.Fprintf(&b, "power managed muxes: %d; expected subtractions per sample: %.1f of 2\n",
		r3.NumManaged(), ops[cdfg.ClassSub])

	b.WriteString("\nFIGURE 2(b'), §II.B — 3 steps with only ONE subtractor (partial gating)\n")
	r3r, err := core.Schedule(g, core.Config{
		Budget: 3,
		Resources: sched.Resources{
			cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1,
		},
		Weights: power.Weights,
	})
	if err != nil {
		return "", err
	}
	b.WriteString(r3r.Schedule.String())
	act2, _ := power.AnalyzeExact(r3r.Graph, r3r.Guards)
	ops2 := act2.ExpectedOps(r3r.Graph)
	fmt.Fprintf(&b, "expected subtractions per sample: %.1f of 2 (one always runs, one gated)\n",
		ops2[cdfg.ClassSub])
	return b.String(), nil
}

// ResourceSweep renders the §II.B study: power management under fixed
// hardware. With ample units the full gating survives; squeezing the
// bottleneck class forces the flow to release gated operations one by one
// (partial gating) rather than fail.
func ResourceSweep() (string, error) {
	var b strings.Builder
	b.WriteString("RESOURCE SWEEP §II.B — gating under fixed hardware (absdiff, 3 steps)\n")
	b.WriteString("subtractors  gated-ops  E[-]   PowerRed\n")
	c := bench.AbsDiff()
	for subs := 2; subs >= 1; subs-- {
		r, err := core.Schedule(c.Graph(), core.Config{
			Budget: 3,
			Resources: sched.Resources{
				cdfg.ClassSub: subs, cdfg.ClassComp: 1, cdfg.ClassMux: 1,
			},
			Weights: power.Weights,
		})
		if err != nil {
			return "", err
		}
		act, _ := power.AnalyzeExact(r.Graph, r.Guards)
		ops := act.ExpectedOps(r.Graph)
		fmt.Fprintf(&b, "%11d  %9d  %.2f   %6.2f%%\n",
			subs, len(r.Guards), ops[cdfg.ClassSub],
			100*power.Reduction(r.Graph, act, power.Weights))
	}
	b.WriteString("\nRESOURCE SWEEP — vender at 6 steps, shrinking multipliers\n")
	b.WriteString("multipliers  gated-ops  E[*]   PowerRed\n")
	v := bench.Vender()
	for muls := 2; muls >= 1; muls-- {
		r, err := core.Schedule(v.Graph(), core.Config{
			Budget: 6,
			Resources: sched.Resources{
				cdfg.ClassMul: muls, cdfg.ClassAdd: 2, cdfg.ClassSub: 2,
				cdfg.ClassComp: 2, cdfg.ClassMux: 3,
			},
			Weights: power.Weights,
		})
		if err != nil {
			return "", err
		}
		act, _ := power.AnalyzeExact(r.Graph, r.Guards)
		ops := act.ExpectedOps(r.Graph)
		fmt.Fprintf(&b, "%11d  %9d  %.2f   %6.2f%%\n",
			muls, len(r.Guards), ops[cdfg.ClassMul],
			100*power.Reduction(r.Graph, act, power.Weights))
	}
	return b.String(), nil
}

// Ablations renders the §IV studies: mux ordering strategies and
// pipelining.
func Ablations() (string, error) {
	var b strings.Builder
	b.WriteString("ABLATION §IV.A — mux processing order (datapath power reduction %)\n")
	b.WriteString("Circuit  Steps  outputs-first  inputs-first  greedy-weight\n")
	orders := []core.Order{core.OrderOutputsFirst, core.OrderInputsFirst, core.OrderGreedyWeight}
	for _, c := range bench.All() {
		budget := c.Budgets[len(c.Budgets)-1]
		fmt.Fprintf(&b, "%-8s %3d    ", c.Name, budget)
		for _, o := range orders {
			r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Order: o, Weights: power.Weights})
			if err != nil {
				return "", err
			}
			act, _ := power.AnalyzeExact(r.Graph, r.Guards)
			fmt.Fprintf(&b, "   %10.2f", 100*power.Reduction(r.Graph, act, power.Weights))
		}
		b.WriteString("\n")
	}

	b.WriteString("\nABLATION §IV.B — two-stage pipelining creates slack\n")
	b.WriteString("Circuit  budget(II)        PM muxes  PowerRed%\n")
	for _, c := range bench.All() {
		cp := c.PaperStats.CriticalPath
		plain, err := core.Schedule(c.Graph(), core.Config{Budget: cp, Weights: power.Weights})
		if err != nil {
			return "", err
		}
		actP, _ := power.AnalyzeExact(plain.Graph, plain.Guards)
		fmt.Fprintf(&b, "%-8s %3d (=%3d) plain  %7d   %8.2f\n", c.Name, cp, cp,
			plain.NumManaged(), 100*power.Reduction(plain.Graph, actP, power.Weights))
		piped, err := core.Schedule(c.Graph(), core.Config{Budget: 2 * cp, II: cp, Weights: power.Weights})
		if err != nil {
			return "", err
		}
		actQ, _ := power.AnalyzeExact(piped.Graph, piped.Guards)
		fmt.Fprintf(&b, "%-8s %3d (=%3d) piped  %7d   %8.2f\n", c.Name, 2*cp, cp,
			piped.NumManaged(), 100*power.Reduction(piped.Graph, actQ, power.Weights))
	}
	return b.String(), nil
}
