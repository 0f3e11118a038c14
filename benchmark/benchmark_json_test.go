package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON is the layout of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONListsTheCodesWorkloadsAndMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names, whys []string
	for _, w := range bj.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var codeNames, codeWhys []string
	for _, w := range workloads {
		codeNames, codeWhys = append(codeNames, w.name), append(codeWhys, w.why)
	}
	if !reflect.DeepEqual(names, codeNames) || !reflect.DeepEqual(whys, codeWhys) {
		t.Errorf("BENCHMARK.json workloads %v differ from the code's %v (or their whys do)", names, codeNames)
	}
	var e2e []metric
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
		if m.Bound <= 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v differ from the code's %v", e2e, endToEnd)
	}
	var layers []metric
	for _, m := range bj.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differ from the code's:\n json %v\n code %v", layers, perLayer())
	}
}

// TestEveryListedMetricIsEmitted computes both metric sets from synthetic
// loads: every listed metric must get a value, and no value may go
// unlisted.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	load := &loadResult{latMs: ramp(100), attempted: 100, elapsed: time.Second, cpu: time.Second,
		rss: []float64{10}, lastCPU: time.Second}
	vals := endToEndValues(load, []startup{{wall: time.Millisecond, cpu: time.Millisecond}})
	checkEmitted(t, endToEnd, vals)

	reqs := []Request{{Kind: "sweep"}, {Kind: "synth"}}
	traced := &loadResult{latMs: ramp(100), lastCPU: time.Second, counters: map[string]int64{"pmsynthd_cache_hits": 3},
		outs: []outcome{{done: true, deduped: true}, {done: true, cached: true}}}
	vals = layerMetrics(reqs, load, traced, &replayResult{fraction: 1})
	checkEmitted(t, perLayer(), vals)
}

func checkEmitted(t *testing.T, defs []metric, vals map[string]float64) {
	t.Helper()
	got, err := metricsOf(defs, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range defs {
		if got[m.name].Unit != m.unit {
			t.Errorf("%s emitted with unit %q, want %q", m.name, got[m.name].Unit, m.unit)
		}
	}
	if len(vals) != len(defs) {
		listed := make(map[string]bool)
		for _, m := range defs {
			listed[m.name] = true
		}
		for k := range vals {
			if !listed[k] {
				t.Errorf("%s is computed but not listed", k)
			}
		}
	}
}
