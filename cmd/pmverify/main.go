// Command pmverify runs the cross-layer differential verification harness:
// N generator seeds, each checked by the internal/verify oracle across the
// full (Order x Budget x workers) matrix — schedule validity, behavioral
// and gate-level equivalence, synthesis/sweep determinism, fingerprint
// integrity — and emits a JSON report. Failing seeds are shrunk to minimal
// reproducers. The exit status is 0 only when every seed passes.
//
//	pmverify -seeds 500
//	pmverify -seeds 200 -profile deep -json report.json
//	pmverify -seeds 50 -gate 0 -v        # skip gate-level sims, narrate
//	pmverify -seeds 100 -stages optimality-gap,schedule-valid
//
// The summary line is followed by an optimality-gap digest (points
// measured, certified solves, mean/max heuristic-vs-exact gap) and a
// per-stage wall-clock breakdown aggregated over the whole campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	pmsynth "repro"
	"repro/internal/gen"
	"repro/internal/verify"
)

// profiles are the generator shapes pmverify rotates through. "mixed"
// cycles per seed so one run covers all of them.
var profiles = map[string]gen.Config{
	"default": gen.Default(),
	"small":   {Ops: 4, Depth: 1, MuxFanIn: 2, Inputs: 2, Outputs: 1, Width: 8, AllowShift: true},
	"deep":    {Ops: 10, Depth: 4, MuxFanIn: 5, Inputs: 3, Outputs: 2, Width: 8, AllowMul: true, AllowShift: true},
	"wide":    {Ops: 24, Depth: 2, MuxFanIn: 3, Inputs: 4, Outputs: 3, Width: 8, AllowMul: true},
	"piped":   {Ops: 6, Depth: 2, MuxFanIn: 3, Inputs: 3, Outputs: 2, Width: 8, Unroll: 6, AllowMul: true, AllowShift: true},
	"narrow":  {Ops: 8, Depth: 2, MuxFanIn: 3, Inputs: 2, Outputs: 2, Width: 4, AllowMul: true},
}

var profileCycle = []string{"default", "small", "deep", "wide", "piped", "narrow"}

type seedFailure struct {
	Seed        int64               `json:"seed"`
	Profile     string              `json:"profile"`
	Stages      []string            `json:"stages"`
	Divergences []verify.Divergence `json:"divergences"`
	Source      string              `json:"source"`
	Minimized   string              `json:"minimized,omitempty"`
}

// gapSummary aggregates the optimality-gap measurements of a campaign.
type gapSummary struct {
	// Points counts the matrix points where heuristic and exact solver
	// were compared on the same objective.
	Points int `json:"points"`
	// Certified counts the points whose exact solve completed (proven
	// minima rather than lower bounds).
	Certified int `json:"certified"`
	// MeanPct and MaxPct summarize the relative power gap
	// 100*(heuristic-optimal)/heuristic over all measured points.
	MeanPct float64 `json:"mean_pct"`
	MaxPct  float64 `json:"max_pct"`
}

type cliReport struct {
	Seeds     int           `json:"seeds"`
	StartSeed int64         `json:"start_seed"`
	Profile   string        `json:"profile"`
	Matrix    verify.Matrix `json:"matrix"`
	Points    int           `json:"points"`
	Checks    int           `json:"checks"`
	Failing   int           `json:"failing"`
	Elapsed   string        `json:"elapsed"`
	// StageMillis is the campaign-wide wall-clock per oracle stage,
	// summed across seeds (concurrent seeds overlap, so stage times can
	// exceed Elapsed).
	StageMillis map[string]int64 `json:"stage_millis,omitempty"`
	// Gaps digests the optimality-gap stage; nil when the stage was
	// filtered out or never produced a comparable point.
	Gaps     *gapSummary   `json:"gaps,omitempty"`
	Failures []seedFailure `json:"failures,omitempty"`
}

func main() {
	var (
		seeds    = flag.Int("seeds", 100, "number of generator seeds to check")
		start    = flag.Int64("start", 0, "first seed")
		profile  = flag.String("profile", "mixed", "generator profile: mixed, default, small, deep, wide, piped, narrow")
		slack    = flag.Int("slack", 2, "budget slack above the critical path")
		orders   = flag.String("orders", "outputs-first,inputs-first,greedy-weight", "comma-separated mux orders")
		workers  = flag.String("workers", "1,4", "comma-separated sweep worker counts (determinism axis)")
		vectors  = flag.Int("vectors", 16, "behavioral probe vectors per point")
		gate     = flag.Int("gate", 6, "gate-level samples per point (0 disables netlist sims)")
		pipeline = flag.Bool("pipeline", true, "add a pipelined (2*cp, II=cp) point")
		stages   = flag.String("stages", "", "comma-separated stage filter (empty = every stage)")
		optExp   = flag.Int("optexp", 0, "branch-and-bound expansion cap for the optimality-gap stage (0 = oracle default)")
		par      = flag.Int("par", runtime.GOMAXPROCS(0), "concurrently checked seeds")
		jsonOut  = flag.String("json", "", "write the JSON report to this file (\"-\" for stdout)")
		shrink   = flag.Bool("shrink", true, "minimize failing seeds to minimal reproducers")
		verbose  = flag.Bool("v", false, "per-seed progress")
	)
	flag.Parse()

	m := verify.Matrix{
		BudgetSlack:       *slack,
		Vectors:           *vectors,
		GateSamples:       *gate,
		Pipeline:          *pipeline,
		OptimalExpansions: *optExp,
	}
	var err error
	if m.Stages, err = parseStages(*stages); err != nil {
		fatal("bad -stages: %v", err)
	}
	if m.Orders, err = parseOrders(*orders); err != nil {
		fatal("bad -orders: %v", err)
	}
	if m.Workers, err = parseInts(*workers); err != nil {
		fatal("bad -workers: %v", err)
	}
	if *profile != "mixed" {
		if _, ok := profiles[*profile]; !ok {
			fatal("unknown profile %q", *profile)
		}
	}

	rep := run(*seeds, *start, *profile, m, *par, *shrink, *verbose)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal report: %v", err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal("write report: %v", err)
		}
	}

	fmt.Printf("pmverify: %d seeds, %d points, %d checks, %d failing (%s)\n",
		rep.Seeds, rep.Points, rep.Checks, rep.Failing, rep.Elapsed)
	if rep.Gaps != nil {
		fmt.Printf("  optimality: %d points compared, %d certified, mean gap %.2f%%, max %.2f%%\n",
			rep.Gaps.Points, rep.Gaps.Certified, rep.Gaps.MeanPct, rep.Gaps.MaxPct)
	}
	if len(rep.StageMillis) > 0 {
		stages := make([]string, 0, len(rep.StageMillis))
		for s := range rep.StageMillis {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		var parts []string
		for _, s := range stages {
			parts = append(parts, fmt.Sprintf("%s %dms", s, rep.StageMillis[s]))
		}
		fmt.Printf("  stage time: %s\n", strings.Join(parts, ", "))
	}
	for _, f := range rep.Failures {
		fmt.Printf("  seed %d (%s): stages %v\n", f.Seed, f.Profile, f.Stages)
		if f.Minimized != "" {
			fmt.Printf("  minimized reproducer:\n%s\n", indent(f.Minimized))
		}
		for _, d := range f.Divergences {
			fmt.Printf("    [%s] %s: %s\n", d.Stage, d.Point, truncate(d.Detail, 300))
		}
	}
	if rep.Failing > 0 {
		os.Exit(1)
	}
}

// profileOf resolves the generator config for one seed. Euclidean modulo:
// negative seeds are legal (-start is an int64), and Go's % keeps the
// dividend's sign.
func profileOf(name string, seed int64) (string, gen.Config) {
	if name != "mixed" {
		return name, profiles[name]
	}
	n := int64(len(profileCycle))
	p := profileCycle[int(((seed%n)+n)%n)]
	return p, profiles[p]
}

// run checks the seed range with a bounded worker pool. Results are
// aggregated in seed order so the report (and the exit status) never
// depends on scheduling.
func run(seeds int, start int64, profile string, m verify.Matrix, par int, shrink, verbose bool) *cliReport {
	if par < 1 {
		par = 1
	}
	begin := time.Now()
	reports := make([]*verify.Report, seeds)
	names := make([]string, seeds)

	// A fixed pool of par workers drains the seed indices: goroutine
	// count (and stack memory) stays constant no matter how large the
	// campaign is.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				seed := start + int64(i)
				name, gcfg := profileOf(profile, seed)
				names[i] = name
				reports[i] = verify.CheckSeed(seed, gcfg, m)
				if verbose {
					status := "ok"
					if !reports[i].OK() {
						status = fmt.Sprintf("FAIL %v", reports[i].Stages())
					}
					fmt.Printf("seed %d (%s): %d points, %d checks: %s\n",
						seed, name, reports[i].Points, reports[i].Checks, status)
				}
			}
		}()
	}
	for i := 0; i < seeds; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &cliReport{Seeds: seeds, StartSeed: start, Profile: profile, Matrix: m}
	stageNanos := map[string]int64{}
	var gs gapSummary
	var gapPctSum float64
	for i, r := range reports {
		rep.Points += r.Points
		rep.Checks += r.Checks
		for stage, ns := range r.StageNanos {
			stageNanos[stage] += ns
		}
		for _, gp := range r.Gaps {
			gs.Points++
			if gp.Certified {
				gs.Certified++
			}
			pct := gp.Pct()
			gapPctSum += pct
			if pct > gs.MaxPct {
				gs.MaxPct = pct
			}
		}
		if r.OK() {
			continue
		}
		rep.Failing++
		f := seedFailure{
			Seed:        r.Seed,
			Profile:     names[i],
			Stages:      r.Stages(),
			Divergences: r.Divergences,
			Source:      r.Source,
		}
		if shrink {
			if min := verify.Minimize(r, m); min != r.Source {
				f.Minimized = min
			}
		}
		rep.Failures = append(rep.Failures, f)
	}
	if len(stageNanos) > 0 {
		rep.StageMillis = make(map[string]int64, len(stageNanos))
		for stage, ns := range stageNanos {
			rep.StageMillis[stage] = ns / int64(time.Millisecond)
		}
	}
	if gs.Points > 0 {
		gs.MeanPct = gapPctSum / float64(gs.Points)
		rep.Gaps = &gs
	}
	rep.Elapsed = time.Since(begin).Round(time.Millisecond).String()
	return rep
}

// parseStages validates a comma-separated stage filter against the
// oracle's stage vocabulary, so a typo fails fast instead of silently
// skipping every stage.
func parseStages(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, st := range verify.KnownStages() {
		known[st] = true
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown stage %q (known: %s)", name, strings.Join(verify.KnownStages(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// parseOrders resolves a comma-separated list of canonical order names.
func parseOrders(s string) ([]pmsynth.Order, error) {
	var out []pmsynth.Order
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		o, err := pmsynth.ParseOrder(name)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no orders")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(f, "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts")
	}
	return out, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmverify: "+format+"\n", args...)
	os.Exit(2)
}
