package main

import (
	"fmt"
	"time"
)

// metric is one reported number's name and unit. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metric struct{ name, unit string }

// endToEnd are the user-visible metrics every workload reports untraced:
// the ones that repeat across seeds closely enough to gate (see doc.go).
// Throughput and latency follow the host's stolen CPU time too closely to
// gate and go to the readable report instead.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MB"},
}

// replayLayers are timed by replaying the daemon's computed work
// in-process, one span around each public call.
var replayLayers = []string{
	"silage.compile", "core.schedule", "alloc.bind", "ctrl.build", "core.baseline",
	"power.activity", "flow.engine", "vhdl.generate", "verilog.generate",
	"cache.store.put", "cache.store.get",
}

// loadLayers are timed at the traced load's client (server.*) or from job
// lifecycle event timestamps (jobs.*).
var loadLayers = []string{
	"server.synthesize", "server.sweep_submit", "server.events", "server.result",
	"jobs.queue_wait", "jobs.run",
}

// layerRatios are the traced run's ratios and counts.
var layerRatios = []metric{
	{"power.exact_ratio", "1"},
	{"core.managed_per_point", "count"},
	{"cdfg.nodes_per_design", "count"},
	{"silage.kb_per_s", "KB/s"},
	{"cache.result.hit_ratio", "1"},
	{"cache.design.hit_ratio", "1"},
	{"flow.pointcache.hit_ratio", "1"},
	{"cache.store.hit_ratio", "1"},
	{"server.dedup_ratio", "1"},
	{"server.shed_ratio", "1"},
	{"server.overhead.share", "1"},
	{"trace_overhead_ratio", "1"},
}

// perLayer lists every metric a traced run reports.
func perLayer() []metric {
	var out []metric
	for _, l := range replayLayers {
		out = append(out, metric{l + ".calls", "count"}, metric{l + ".busy_ms", "ms"},
			metric{l + ".p50_us", "us"}, metric{l + ".share", "1"})
	}
	for _, l := range loadLayers {
		out = append(out, metric{l + ".calls", "count"}, metric{l + ".busy_ms", "ms"},
			metric{l + ".p50_us", "us"})
	}
	return append(out, layerRatios...)
}

// layerValues adds a layer's call count, busy time and median duration.
func layerValues(vals map[string]float64, layer string, ds []time.Duration) {
	var busy time.Duration
	xs := make([]float64, len(ds))
	for i, d := range ds {
		busy += d
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	vals[layer+".calls"] = float64(len(ds))
	vals[layer+".busy_ms"] = ms(busy)
	vals[layer+".p50_us"] = median(xs)
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricsOf keeps exactly the listed metrics of vals, each with its unit.
// A listed metric without a value is a bug in the harness.
func metricsOf(defs []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = value{v, m.unit}
	}
	return out, nil
}
