package tables

import (
	"fmt"
	"strings"

	pmsynth "repro"
	"repro/internal/bench"
	"repro/internal/cdfg"
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

// TableII renders the power management sweep with the paper's rows
// interleaved for comparison. Each circuit's budget sweep is one
// pmsynth.Sweep, printed row by row.
func TableII() (string, error) {
	var b strings.Builder
	b.WriteString("TABLE II — AVERAGE OPERATIONS EXECUTED WITH POWER MANAGEMENT\n")
	b.WriteString("(paper rows shown beneath measured rows; circuits are reconstructions,\n")
	b.WriteString(" so shapes — monotone growth, saturation, op mix — are the comparison)\n")
	b.WriteString(pmsynth.RowHeader + "\n")
	for _, c := range bench.All() {
		res, err := pmsynth.Sweep(c.Design, pmsynth.SweepSpec{Budgets: c.Budgets})
		if err != nil {
			return "", err
		}
		for i, p := range res.Points {
			if p.Err != nil {
				return "", fmt.Errorf("%s@%d: %w", c.Name, c.Budgets[i], p.Err)
			}
			fmt.Fprintln(&b, p.Row)
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
// and budget of Table II. Each circuit's budgets are one pmsynth.Sweep,
// and each point is solved by Synthesis.Optimal. Certified rows are proven
// minima; truncated rows report the best schedule found (never worse than
// the heuristic, which seeds the search) together with the solver's sound
// lower bound after maxExpansions node expansions (0 uses the solver
// default).
func TableOptimal(maxExpansions int) (string, error) {
	var b strings.Builder
	b.WriteString("OPTIMALITY GAP — heuristic vs exact minimum switched capacitance\n")
	b.WriteString("(power = expected weighted ops per sample under the paper's weights)\n")
	b.WriteString("Circuit  Steps  Heuristic   Optimal   Gap%  Certificate\n")
	for _, c := range bench.All() {
		res, err := pmsynth.Sweep(c.Design, pmsynth.SweepSpec{Budgets: c.Budgets})
		if err != nil {
			return "", err
		}
		for i, p := range res.Points {
			if p.Err != nil {
				return "", fmt.Errorf("%s@%d: %w", c.Name, c.Budgets[i], p.Err)
			}
			syn := p.Synthesis
			opt, err := syn.Optimal(maxExpansions)
			if err != nil {
				return "", fmt.Errorf("%s@%d: %w", c.Name, c.Budgets[i], err)
			}
			hp := syn.WeightedPower()
			gap := pmsynth.GapPct(hp, opt.Power)
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
		syn, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: c.PaperIII.Steps})
		if err != nil {
			return "", err
		}
		rep, err := syn.GateLevelReport(samples, seed)
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
	d := bench.AbsDiff().Design

	b.WriteString("FIGURE 1 — |a-b| with 2 control steps (no PM possible)\n")
	s2, err := pmsynth.Synthesize(d, pmsynth.Options{Budget: 2})
	if err != nil {
		return "", err
	}
	b.WriteString(s2.PM.Schedule.String())
	fmt.Fprintf(&b, "power managed muxes: %d (the schedule is unique)\n\n", s2.PM.NumManaged())

	s3, err := pmsynth.Synthesize(d, pmsynth.Options{Budget: 3})
	if err != nil {
		return "", err
	}
	b.WriteString("FIGURE 2(a) — traditional 3-step schedule (one subtractor)\n")
	b.WriteString(s3.BaselineSchedule.String())
	fmt.Fprintf(&b, "resources: %v; both subtractions always execute\n\n", s3.Flow.BaselineResources)

	b.WriteString("FIGURE 2(b) — power managed 3-step schedule (two subtractors)\n")
	b.WriteString(s3.PM.Schedule.String())
	fmt.Fprintf(&b, "power managed muxes: %d; expected subtractions per sample: %.1f of 2\n",
		s3.PM.NumManaged(), s3.Row().Sub)

	b.WriteString("\nFIGURE 2(b'), §II.B — 3 steps with only ONE subtractor (partial gating)\n")
	s3r, err := pmsynth.Synthesize(d, pmsynth.Options{
		Budget:    3,
		Resources: map[cdfg.Class]int{cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1},
	})
	if err != nil {
		return "", err
	}
	b.WriteString(s3r.PM.Schedule.String())
	fmt.Fprintf(&b, "expected subtractions per sample: %.1f of 2 (one always runs, one gated)\n",
		s3r.Row().Sub)
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
	absdiff := bench.AbsDiff().Design
	for subs := 2; subs >= 1; subs-- {
		s, err := pmsynth.Synthesize(absdiff, pmsynth.Options{
			Budget:    3,
			Resources: map[cdfg.Class]int{cdfg.ClassSub: subs, cdfg.ClassComp: 1, cdfg.ClassMux: 1},
		})
		if err != nil {
			return "", err
		}
		r := s.Row()
		fmt.Fprintf(&b, "%11d  %9d  %.2f   %6.2f%%\n", subs, len(s.PM.Guards), r.Sub, r.PowerReductionPct)
	}
	b.WriteString("\nRESOURCE SWEEP — vender at 6 steps, shrinking multipliers\n")
	b.WriteString("multipliers  gated-ops  E[*]   PowerRed\n")
	vender := bench.Vender().Design
	for muls := 2; muls >= 1; muls-- {
		s, err := pmsynth.Synthesize(vender, pmsynth.Options{
			Budget: 6,
			Resources: map[cdfg.Class]int{
				cdfg.ClassMul: muls, cdfg.ClassAdd: 2, cdfg.ClassSub: 2,
				cdfg.ClassComp: 2, cdfg.ClassMux: 3,
			},
		})
		if err != nil {
			return "", err
		}
		r := s.Row()
		fmt.Fprintf(&b, "%11d  %9d  %.2f   %6.2f%%\n", muls, len(s.PM.Guards), r.Mul, r.PowerReductionPct)
	}
	return b.String(), nil
}

// Ablations renders the §IV studies: mux ordering strategies and
// pipelining.
func Ablations() (string, error) {
	var b strings.Builder
	b.WriteString("ABLATION §IV.A — mux processing order (datapath power reduction %)\n")
	b.WriteString("Circuit  Steps  outputs-first  inputs-first  greedy-weight\n")
	orders := []pmsynth.Order{pmsynth.OrderOutputsFirst, pmsynth.OrderInputsFirst, pmsynth.OrderGreedyWeight}
	for _, c := range bench.All() {
		budget := c.Budgets[len(c.Budgets)-1]
		fmt.Fprintf(&b, "%-8s %3d    ", c.Name, budget)
		for _, o := range orders {
			s, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: budget, Order: o})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "   %10.2f", s.Row().PowerReductionPct)
		}
		b.WriteString("\n")
	}

	b.WriteString("\nABLATION §IV.B — two-stage pipelining creates slack\n")
	b.WriteString("Circuit  budget(II)        PM muxes  PowerRed%\n")
	for _, c := range bench.All() {
		cp := c.PaperStats.CriticalPath
		for _, v := range []struct {
			name   string
			budget int
		}{{"plain", cp}, {"piped", 2 * cp}} {
			s, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: v.budget, II: cp})
			if err != nil {
				return "", err
			}
			r := s.Row()
			fmt.Fprintf(&b, "%-8s %3d (=%3d) %s  %7d   %8.2f\n", c.Name, v.budget, cp, v.name,
				r.PMMuxes, r.PowerReductionPct)
		}
	}
	return b.String(), nil
}
