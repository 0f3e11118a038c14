package benchreport

// MeasureSweeps times full
// design-space sweeps through the flow engine at chosen worker counts and
// serializes the measurements as JSON (BENCH_sweep.json at the repository
// root, written by cmd/pmbench), so the performance trajectory is tracked
// across PRs instead of living in scrollback.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/power"
)

// SweepBenchSchema versions the JSON layout of SweepBenchReport.
const SweepBenchSchema = "pmsynth-bench-sweep/v1"

// SweepBenchPoint is one (circuit, worker count) measurement.
type SweepBenchPoint struct {
	// Circuit is the benchmark name.
	Circuit string `json:"circuit"`
	// Configs is the number of configurations the sweep evaluated.
	Configs int `json:"configs"`
	// Workers is the evaluation pool bound (0 was resolved to
	// GOMAXPROCS before recording).
	Workers int `json:"workers"`
	// WallNs is the wall-clock time of the whole sweep.
	WallNs int64 `json:"wallNs"`
	// NsPerConfig is WallNs / Configs, the serving-relevant unit cost.
	NsPerConfig int64 `json:"nsPerConfig"`
	// Failed counts configurations whose pipeline errored.
	Failed int `json:"failed"`
	// BestPowerRedPct is the best datapath power reduction found, as a
	// cross-check that timing runs still compute real results.
	BestPowerRedPct float64 `json:"bestPowerRedPct"`
}

// SweepBenchReport is the full result file.
type SweepBenchReport struct {
	// Schema identifies the layout for downstream tooling.
	Schema string `json:"schema"`
	// GeneratedAt stamps the run (RFC 3339).
	GeneratedAt string `json:"generatedAt"`
	// GoVersion, GOOS, GOARCH and GOMAXPROCS describe the machine.
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Points holds one measurement per (circuit, worker count), in
	// deterministic order: circuits as given, worker counts as given.
	Points []SweepBenchPoint `json:"points"`
}

// MeasureSweeps runs every circuit's Table II budget sweep once per worker
// count and records wall-clock timings. Worker count 0 means GOMAXPROCS.
func MeasureSweeps(circuits []*bench.Circuit, workerCounts []int) (*SweepBenchReport, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 0}
	}
	rep := &SweepBenchReport{
		Schema:      SweepBenchSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, c := range circuits {
		cfgs := make([]core.Config, len(c.Budgets))
		for i, b := range c.Budgets {
			cfgs[i] = core.Config{Budget: b, Weights: power.Weights}
		}
		for _, workers := range workerCounts {
			resolved := workers
			if resolved <= 0 {
				resolved = runtime.GOMAXPROCS(0)
			}
			start := time.Now()
			ctxs, err := flow.RunAllPipeline(nil, nil, c.Graph(), c.Design.Width, cfgs, workers)
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: %s sweep: %w", c.Name, err)
			}
			p := SweepBenchPoint{
				Circuit: c.Name,
				Configs: len(cfgs),
				Workers: resolved,
				WallNs:  wall.Nanoseconds(),
			}
			if len(cfgs) > 0 {
				p.NsPerConfig = wall.Nanoseconds() / int64(len(cfgs))
			}
			for _, fc := range ctxs {
				if fc == nil || fc.Err != nil {
					p.Failed++
					continue
				}
				red := 100 * power.Reduction(fc.PM.Graph, fc.Activity, power.Weights)
				if red > p.BestPowerRedPct {
					p.BestPowerRedPct = red
				}
			}
			rep.Points = append(rep.Points, p)
		}
	}
	return rep, nil
}

// WriteJSON serializes the report, indented for diff-friendly commits.
func (r *SweepBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report previously written by WriteJSON and checks its
// schema tag.
func ReadJSON(r io.Reader) (*SweepBenchReport, error) {
	var rep SweepBenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchreport: parse: %w", err)
	}
	if rep.Schema != SweepBenchSchema {
		return nil, fmt.Errorf("benchreport: schema %q, want %q", rep.Schema, SweepBenchSchema)
	}
	return &rep, nil
}

// bestNsPerConfig reduces a report to its per-circuit minimum nsPerConfig
// across worker counts: the gate compares engines, not pool shapes (the
// committed baseline and the CI runner rarely agree on GOMAXPROCS).
func bestNsPerConfig(r *SweepBenchReport) map[string]int64 {
	out := make(map[string]int64)
	for _, p := range r.Points {
		if p.NsPerConfig <= 0 {
			continue
		}
		if cur, ok := out[p.Circuit]; !ok || p.NsPerConfig < cur {
			out[p.Circuit] = p.NsPerConfig
		}
	}
	return out
}

// CompareAgainst checks r (a fresh measurement) against a committed
// baseline: any circuit present in both whose best nsPerConfig exceeds
// threshold times the baseline's is reported as a regression. The
// threshold absorbs machine-to-machine noise — CI uses ~3x, so only real
// algorithmic regressions (reintroduced quadratic passes, lost caching)
// trip the gate. Circuits present on only one side are skipped: the gate
// tracks shared coverage, not benchmark-set churn.
func (r *SweepBenchReport) CompareAgainst(baseline *SweepBenchReport, threshold float64) []string {
	if threshold <= 0 {
		threshold = 3
	}
	cur := bestNsPerConfig(r)
	base := bestNsPerConfig(baseline)
	var regressions []string
	for _, c := range sortedKeys(cur) {
		b, ok := base[c]
		if !ok {
			continue
		}
		if float64(cur[c]) > threshold*float64(b) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fms/config vs baseline %.2fms/config (%.1fx > %.1fx threshold)",
					c, float64(cur[c])/1e6, float64(b)/1e6, float64(cur[c])/float64(b), threshold))
		}
	}
	return regressions
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
