package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// passSpans names the span around each standard pass, in pipeline order.
var passSpans = []struct {
	name string
	pass flow.Pass
}{
	{"core.schedule", flow.SchedulePass{}},
	{"alloc.bind", flow.BindPass{}},
	{"ctrl.build", flow.ControllerPass{}},
	{"core.baseline", flow.BaselinePass{}},
	{"power.activity", flow.ActivityPass{}},
}

// replayResult is what the in-process replay measured.
type replayResult struct {
	traces []*telemetry.Trace
	// fraction is the share of the replay set that fit the time budget.
	fraction                 float64
	points, exact, managed   int
	designs, nodes, srcBytes int
}

// replayed is one request of the replay set.
type replayed struct {
	req Request
	out *outcome
}

// replaySet picks the requests whose work the daemon did, warm-up
// included: computed ones, or under restarts the store reads that
// answered everything.
func replaySet(w *workload, reqs []Request, l *loadResult) []replayed {
	var out []replayed
	l.each(func(i int, o *outcome) {
		if o.err == nil && (o.computed() || w.restarts) {
			out = append(out, replayed{reqs[i], o})
		}
	})
	return out
}

// replay re-runs the work behind the traced load serially in-process, one
// trace per request, until the set is done or budget has passed. The
// private store lives under dir.
func replay(w *workload, reqs []Request, l *loadResult, dir string, budget time.Duration) (*replayResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := cache.OpenStore(dir, 1<<30)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	rr := &replayResult{}
	set := replaySet(w, reqs, l)
	start := time.Now()
	n := 0
	for _, rp := range set {
		if time.Since(start) > budget {
			break
		}
		tr := telemetry.NewTrace("")
		ctx := telemetry.WithTrace(context.Background(), tr)
		r, served := rp.req, []byte(rp.out.served)
		if w.restarts {
			if err := store.Put(r.Key(), served); err != nil {
				return nil, err
			}
			if err := span(ctx, "cache.store.get", func() error {
				if _, ok := store.Get(r.Key()); !ok {
					return fmt.Errorf("the private store lost %s", r.Key())
				}
				return nil
			}); err != nil {
				return nil, err
			}
		} else if err := rr.compute(ctx, r); err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Key(), err)
		} else if err := span(ctx, "cache.store.put", func() error { return store.Put(r.Key(), served) }); err != nil {
			return nil, err
		}
		rr.traces = append(rr.traces, tr)
		n++
	}
	rr.fraction = 1
	if len(set) > 0 {
		rr.fraction = float64(n) / float64(len(set))
	}
	return rr, nil
}

// compute replays one computed request: compile, for a sweep the
// engine's own cost, the standard passes per configuration, and any RTL
// emission. The engine span is flow.RunAll at one worker over the sweep's
// configurations with an empty pipeline: its analysis prewarm, point
// cache and worker pool without the passes, which leaves the design's
// analyses warm for the pass spans as they are in the daemon's sweeps.
func (rr *replayResult) compute(ctx context.Context, r Request) error {
	var d *pmsynth.Design
	if err := span(ctx, "silage.compile", func() error {
		var err error
		d, err = pmsynth.Compile(r.Source)
		return err
	}); err != nil {
		return err
	}
	rr.designs++
	rr.nodes += d.Graph.NumNodes()
	rr.srcBytes += len(r.Source)
	budgets := []int{r.Budget}
	if r.Kind == "sweep" {
		budgets = budgets[:0]
		for b := r.BudgetMin; b <= r.BudgetMax; b++ {
			budgets = append(budgets, b)
		}
	}
	cfgs := make([]core.Config, len(budgets))
	for k, b := range budgets {
		cfgs[k] = core.Config{Budget: b, Weights: power.Weights}
	}
	if r.Kind == "sweep" {
		if err := span(ctx, "flow.engine", func() error {
			_, err := flow.RunAllPipeline(context.Background(), flow.New(), d.Graph, d.Width, cfgs, 1)
			return err
		}); err != nil {
			return err
		}
	}
	var last *flow.Context
	for _, cfg := range cfgs {
		fc := &flow.Context{Graph: d.Graph, Width: d.Width, Config: cfg}
		for _, p := range passSpans {
			if err := span(ctx, p.name, func() error { return p.pass.Run(fc) }); err != nil {
				break // the daemon records the same failure in the point
			}
		}
		rr.points++
		if fc.PM != nil {
			rr.managed += fc.PM.NumManaged()
		}
		if fc.ActivityExact {
			rr.exact++
		}
		last = fc
	}
	switch {
	case r.Emit == "vhdl" && last.Controller != nil:
		return span(ctx, "vhdl.generate", func() error { _, err := vhdl.Generate(last.Controller, d.Width); return err })
	case r.Emit == "verilog" && last.Controller != nil:
		return span(ctx, "verilog.generate", func() error { _, err := verilog.Generate(last.Controller, d.Width); return err })
	}
	return nil
}

// spanDurations groups the durations of every span in traces by name.
func spanDurations(traces []*telemetry.Trace) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	var walk func([]*telemetry.SpanNode)
	walk = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			out[n.Name] = append(out[n.Name], time.Duration(n.DurationNs))
			walk(n.Children)
		}
	}
	for _, tr := range traces {
		walk(tr.Snapshot().Roots)
	}
	return out
}

// layerMetrics computes every per-layer metric of a traced run over reqs:
// untraced is the plain load, traced the load with client spans, rr the
// replay.
func layerMetrics(reqs []Request, untraced, traced *loadResult, rr *replayResult) map[string]float64 {
	vals := make(map[string]float64)
	spans := spanDurations(rr.traces)
	cpuMs := ms(traced.lastCPU)
	sum := 0.0
	for _, l := range replayLayers {
		layerValues(vals, l, spans[l])
		share := 0.0
		if cpuMs > 0 && rr.fraction > 0 {
			share = vals[l+".busy_ms"] / rr.fraction / cpuMs
		}
		vals[l+".share"] = share
		sum += share
	}
	var loadTraces []*telemetry.Trace
	var queue, run []time.Duration
	sweeps, deduped := 0, 0
	traced.each(func(i int, o *outcome) {
		if o.trace != nil {
			loadTraces = append(loadTraces, o.trace)
		}
		if o.err == nil && o.run > 0 {
			queue, run = append(queue, o.queueWait), append(run, o.run)
		}
		if o.err == nil && reqs[i].Kind == "sweep" {
			sweeps++
			if o.deduped {
				deduped++
			}
		}
	})
	loadSpans := spanDurations(loadTraces)
	loadSpans["jobs.queue_wait"], loadSpans["jobs.run"] = queue, run
	for _, l := range loadLayers {
		layerValues(vals, l, loadSpans[l])
	}
	c := traced.counters
	vals["power.exact_ratio"] = ratio(rr.exact, rr.points)
	vals["core.managed_per_point"] = ratio(rr.managed, rr.points)
	vals["cdfg.nodes_per_design"] = ratio(rr.nodes, rr.designs)
	vals["silage.kb_per_s"] = 0
	if busy := vals["silage.compile.busy_ms"]; busy > 0 {
		vals["silage.kb_per_s"] = float64(rr.srcBytes) / 1024 / (busy / 1000)
	}
	vals["cache.result.hit_ratio"] = hitRatio(c, "pmsynthd_cache")
	vals["cache.design.hit_ratio"] = hitRatio(c, "pmsynthd_design_cache")
	vals["flow.pointcache.hit_ratio"] = hitRatio(c, "pmsynthd_sweeppoint_cache")
	vals["cache.store.hit_ratio"] = hitRatio(c, "pmsynthd_store")
	vals["server.dedup_ratio"] = ratio(deduped, sweeps)
	vals["server.shed_ratio"] = ratio(int(c["pmsynthd_sweep_shed"]), int(c["pmsynthd_sweep_requests"]))
	vals["server.overhead.share"] = 1 - sum
	vals["trace_overhead_ratio"] = median(traced.latMs) / median(untraced.latMs)
	return vals
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hitRatio reads <prefix>_hits / (hits + misses) from scraped counters.
func hitRatio(c map[string]int64, prefix string) float64 {
	h, m := c[prefix+"_hits"], c[prefix+"_misses"]
	return ratio(int(h), int(h+m))
}

// writeSpans writes every trace of a traced run, the load's and the
// replay's, as one JSON file.
func writeSpans(path string, traced *loadResult, rr *replayResult) error {
	var snaps []telemetry.Snapshot
	traced.each(func(_ int, o *outcome) {
		if o.trace != nil {
			snaps = append(snaps, o.trace.Snapshot())
		}
	})
	for _, tr := range rr.traces {
		snaps = append(snaps, tr.Snapshot())
	}
	b, err := json.Marshal(snaps)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
