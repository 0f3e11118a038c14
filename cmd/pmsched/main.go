// Command pmsched runs the power management aware behavioral synthesis
// flow on a Silage-style source file: compile, schedule with shut-down
// maximization, bind, and report — optionally emitting VHDL or Graphviz.
//
// Usage:
//
//	pmsched -src design.sil -steps 6
//	pmsched -src design.sil -steps 6 -vhdl out.vhd -dot cdfg.dot
//	pmsched -src design.sil -steps 12 -ii 6            # two-stage pipeline
//	pmsched -src design.sil -steps 6 -order greedy-weight  # §IV.A reordering
//	pmsched -src design.sil -steps 6 -gates -samples 200
//	pmsched -builtin gcd -steps 7                      # run a paper benchmark
//	pmsched -builtin dealer -steps 5 -optimal          # heuristic vs exact minimum
//	pmsched -builtin gcd -sweep 5:10                   # concurrent budget sweep
//	pmsched -builtin gcd -sweep 5:10 -pareto           # Pareto-optimal points only
//	pmsched -builtin cordic -dump-source               # print a builtin's Silage text
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/bench"
	"repro/internal/cdfg"
)

// verifyVectors is how many random vectors every single run checks the
// gated schedule against the reference on.
const verifyVectors = 200

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmsched: "+format+"\n", args...)
	os.Exit(1)
}

// lookupBuiltin finds a -builtin circuit by case-insensitive name: one of
// the four paper benchmarks or the |a-b| example of Figures 1 and 2.
func lookupBuiltin(name string) (*bench.Circuit, error) {
	var names []string
	for _, c := range append(bench.All(), bench.AbsDiff()) {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return nil, fmt.Errorf("unknown builtin %q (valid: %s)", name, strings.Join(names, ", "))
}

// parseRange parses a "lo:hi" budget range (a single "n" means n:n).
func parseRange(s string) (lo, hi int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if lo, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep range %q", s)
	}
	hi = lo
	if len(parts) == 2 {
		if hi, err = strconv.Atoi(parts[1]); err != nil {
			return 0, 0, fmt.Errorf("bad -sweep range %q", s)
		}
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("bad -sweep range %q", s)
	}
	return lo, hi, nil
}

func main() {
	srcPath := flag.String("src", "", "Silage-style source file")
	builtin := flag.String("builtin", "", "built-in benchmark: dealer, gcd, vender, cordic, absdiff")
	steps := flag.Int("steps", 0, "control steps per sample (default: critical path)")
	ii := flag.Int("ii", 0, "pipeline initiation interval (0 = no pipelining)")
	orderName := flag.String("order", "outputs-first", "mux order: outputs-first, inputs-first, greedy-weight")
	vhdlPath := flag.String("vhdl", "", "write power managed VHDL to this file")
	verilogPath := flag.String("verilog", "", "write power managed Verilog to this file")
	dotPath := flag.String("dot", "", "write the scheduled CDFG in Graphviz format")
	explain := flag.Bool("explain", false, "report per-mux power management verdicts")
	optimalCmp := flag.Bool("optimal", false, "compare against the exact minimum-power schedule (branch and bound)")
	gates := flag.Bool("gates", false, "measure gate-level power (PM vs traditional)")
	vcdPath := flag.String("vcd", "", "dump gate-level waveforms (VCD) to this file")
	samples := flag.Int("samples", 100, "random vectors for -gates")
	sweep := flag.String("sweep", "", "budget sweep range lo:hi — evaluate every budget concurrently")
	pareto := flag.Bool("pareto", false, "with -sweep, report the Pareto-optimal points and the best configuration")
	dumpSource := flag.Bool("dump-source", false, "print the design's Silage source and exit (for feeding builtins to pmsynthd)")
	flag.Parse()

	var design *pmsynth.Design
	var source string
	switch {
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fail("%v", err)
		}
		source = string(data)
		design, err = pmsynth.Compile(source)
		if err != nil {
			fail("%v", err)
		}
	case *builtin != "":
		c, err := lookupBuiltin(*builtin)
		if err != nil {
			fail("%v", err)
		}
		design, source = c.Design, c.Source
	default:
		fail("need -src or -builtin (try -builtin absdiff -steps 3)")
	}
	if *dumpSource {
		fmt.Print(source)
		return
	}

	cp, err := pmsynth.CriticalPath(design)
	if err != nil {
		fail("%v", err)
	}
	if *steps == 0 {
		*steps = cp
	}

	order, err := pmsynth.ParseOrder(*orderName)
	if err != nil {
		fail("%v", err)
	}

	if *sweep == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pareto" {
				fail("-pareto requires -sweep")
			}
		})
	} else {
		// Single-run flags have no meaning across a sweep; reject them
		// loudly rather than silently dropping their output.
		incompatible := map[string]bool{
			"steps": true, "gates": true, "samples": true, "vcd": true,
			"vhdl": true, "verilog": true, "dot": true, "explain": true,
			"optimal": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if incompatible[f.Name] {
				fail("-%s cannot be combined with -sweep", f.Name)
			}
		})
		lo, hi, err := parseRange(*sweep)
		if err != nil {
			fail("%v", err)
		}
		spec := pmsynth.SweepSpec{
			BudgetMin: lo, BudgetMax: hi,
			IIs:    []int{*ii},
			Orders: []pmsynth.Order{order},
		}
		res, err := pmsynth.Sweep(design, spec)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("design %q: critical path %d, sweeping budgets %d..%d\n",
			design.Graph.Name, cp, lo, hi)
		fmt.Print(res.Table())
		if *pareto {
			fmt.Println("\nPARETO FRONT (max power reduction, min area, min steps)")
			for _, p := range res.Pareto() {
				fmt.Printf("  budget %d: %s\n", p.Options.Budget, p.Row)
			}
			if best := res.Best(pmsynth.MaxPowerReduction); best != nil {
				fmt.Printf("best power reduction: budget %d (%.2f%%)\n",
					best.Options.Budget, best.Row.PowerReductionPct)
			}
		}
		return
	}

	syn, err := pmsynth.Synthesize(design, pmsynth.Options{Budget: *steps, II: *ii, Order: order})
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("design %q: critical path %d, budget %d", design.Graph.Name, cp, *steps)
	if *ii != 0 {
		fmt.Printf(", pipelined (II=%d)", *ii)
	}
	fmt.Println()
	fmt.Print(syn.PM.Schedule.String())
	fmt.Printf("power managed muxes: %d\n", syn.PM.NumManaged())
	for _, mm := range syn.PM.Managed {
		g := syn.PM.Graph
		names := func(ids []cdfg.NodeID) string {
			var out []string
			for _, id := range ids {
				out = append(out, g.Node(id).Name)
			}
			return strings.Join(out, ",")
		}
		fmt.Printf("  mux %s (select %s): shuts down true={%s} false={%s}\n",
			g.Node(mm.Mux).Name, g.Node(mm.Sel).Name, names(mm.GatedTrue), names(mm.GatedFalse))
	}
	fmt.Printf("units: %v\n", syn.Binding.Units)
	fmt.Println(pmsynth.RowHeader)
	fmt.Println(syn.Row())

	if *optimalCmp {
		opt, err := syn.Optimal(0) // the solver's default expansion cap
		if err != nil {
			fail("optimal: %v", err)
		}
		hp := syn.WeightedPower()
		fmt.Printf("exact minimum (branch and bound): power %.4g vs heuristic %.4g", opt.Power, hp)
		if hp > 0 {
			fmt.Printf(" (gap %.2f%%)", pmsynth.GapPct(hp, opt.Power))
		}
		fmt.Println()
		if opt.Cert.Optimal {
			fmt.Printf("  certified optimal after %d expansions\n", opt.Cert.Expansions)
		} else {
			fmt.Printf("  search truncated at %d expansions; certified lower bound %.4g\n",
				opt.Cert.Expansions, opt.Cert.LowerBound)
		}
		if opt.Power < hp {
			fmt.Print(opt.Schedule.String())
			fmt.Printf("  gated operations under the exact schedule: %d\n", opt.Gated)
		}
	}

	if *explain {
		text, err := pmsynth.Explain(design, pmsynth.Options{Budget: *steps, II: *ii, Order: order})
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(text)
	}

	if err := syn.Verify(verifyVectors, 12345); err != nil {
		fail("verification FAILED: %v", err)
	}
	fmt.Printf("verified: gated schedule matches reference on %d random vectors\n", verifyVectors)

	if *vhdlPath != "" {
		text, err := syn.VHDL()
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*vhdlPath, []byte(text), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote VHDL to %s\n", *vhdlPath)
	}
	if *verilogPath != "" {
		text, err := syn.Verilog()
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*verilogPath, []byte(text), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote Verilog to %s\n", *verilogPath)
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(syn.DOT()), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote Graphviz CDFG to %s\n", *dotPath)
	}
	if *gates {
		rep, err := syn.GateLevelReport(*samples, 11)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(rep)
	}
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fail("%v", err)
		}
		if err := syn.DumpVCD(10, 11, f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote waveforms to %s\n", *vcdPath)
	}
}
