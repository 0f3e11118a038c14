package telemetry

import (
	"strings"
	"testing"
)

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("pmsynthd_requests", "total requests", func() float64 { return 3 })
	r.GaugeFunc("pmsynthd_uptime_seconds", "uptime", func() float64 { return 42 })
	pass := r.HistogramVec("pmsynthd_pass_seconds", "per-pass time", []float64{1}, "pass", "side")
	for i := 0; i < 5; i++ {
		pass.With("bind", "pm").Observe(0.5)
	}
	pass.With("bind", "base").Observe(2)
	h := r.Histogram("pmsynthd_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	// Binary-exact values so the rendered _sum is a stable string.
	h.Observe(0.0078125)
	h.Observe(0.0625)
	h.Observe(4)

	var b strings.Builder
	r.Render(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP pmsynthd_requests total requests",
		"# TYPE pmsynthd_requests counter",
		"pmsynthd_requests 3",
		"# TYPE pmsynthd_uptime_seconds gauge",
		"pmsynthd_uptime_seconds 42",
		"# HELP pmsynthd_pass_seconds per-pass time",
		"# TYPE pmsynthd_pass_seconds histogram",
		`pmsynthd_pass_seconds_bucket{pass="bind",side="pm",le="1"} 5`,
		`pmsynthd_pass_seconds_count{pass="bind",side="pm"} 5`,
		`pmsynthd_pass_seconds_bucket{pass="bind",side="base",le="1"} 0`,
		`pmsynthd_pass_seconds_bucket{pass="bind",side="base",le="+Inf"} 1`,
		"# TYPE pmsynthd_latency_seconds histogram",
		`pmsynthd_latency_seconds_bucket{le="0.01"} 1`,
		`pmsynthd_latency_seconds_bucket{le="0.1"} 2`,
		`pmsynthd_latency_seconds_bucket{le="1"} 2`,
		`pmsynthd_latency_seconds_bucket{le="+Inf"} 3`,
		"pmsynthd_latency_seconds_sum 4.0703125",
		"pmsynthd_latency_seconds_count 3",
	} { // verify each expected line appears exactly once
		if strings.Count(out, want+"\n") != 1 {
			t.Fatalf("rendered output missing or duplicating %q:\n%s", want, out)
		}
	}

	// Families render sorted by name, whatever order they registered in.
	order := []string{
		"# TYPE pmsynthd_latency_seconds ",
		"# TYPE pmsynthd_pass_seconds ",
		"# TYPE pmsynthd_requests ",
		"# TYPE pmsynthd_uptime_seconds ",
	}
	for k := 1; k < len(order); k++ {
		if strings.Index(out, order[k-1]) > strings.Index(out, order[k]) {
			t.Fatalf("families not sorted by name: %q renders after %q:\n%s", order[k-1], order[k], out)
		}
	}
	// Series render sorted by label values: side="base" first, though
	// it was created second.
	if strings.Index(out, `side="base"`) > strings.Index(out, `side="pm"`) {
		t.Fatalf("series not sorted by label values:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestRegistryLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat", "", nil, "route")
	defer func() {
		if recover() == nil {
			t.Fatal("a series with the wrong label count did not panic")
		}
	}()
	hv.With("GET /healthz", "extra")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("m", "", []float64{1}, "p")
	hv.With("a\"b\\c\nd").Observe(0)
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), `m_count{p="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat", "", nil, "route")
	h := hv.With("/v1/sweep")
	for _, v := range []float64{0.00005, 0.002, 0.002, 0.3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	r.Render(&b)
	// Cumulative counts must be nondecreasing and end at the total.
	prev := int64(-1)
	lines := strings.Split(b.String(), "\n")
	seen := 0
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "lat_bucket") {
			continue
		}
		seen++
		var n int64
		if _, err := fmtSscan(ln, &n); err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		if n < prev {
			t.Fatalf("bucket counts regress at %q", ln)
		}
		prev = n
	}
	if seen != len(DefBuckets)+1 {
		t.Fatalf("rendered %d buckets, want %d", seen, len(DefBuckets)+1)
	}
	if prev != 5 {
		t.Fatalf("+Inf bucket = %d, want 5", prev)
	}
}

// fmtSscan pulls the trailing integer off a rendered sample line.
func fmtSscan(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	v, err := parseInt(line[i+1:])
	*n = v
	return 1, err
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &parseErr{s}
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "bad int " + e.s }

func TestParseLevelAndLogger(t *testing.T) {
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("bad level accepted")
	}
	lv, err := ParseLevel("warn")
	if err != nil || lv.String() != "WARN" {
		t.Fatalf("ParseLevel(warn) = %v, %v", lv, err)
	}
	var b strings.Builder
	lg, err := NewLogger(&b, lv, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", "v")
	out := b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("level filtering wrong: %s", out)
	}
	if _, err := NewLogger(&b, lv, "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
	NopLogger().Error("nowhere")
}

// TestHandlesAndCallbackVecs: callbacks are read at every render, not at
// registration, and a HistogramVec hands back one series per label tuple.
func TestHandlesAndCallbackVecs(t *testing.T) {
	r := NewRegistry()

	var tasks, depth float64 = 7, 9
	r.CounterFunc("tasks_total", "completed tasks", func() float64 { return tasks })
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	hv := r.HistogramVec("pool_seconds", "per-pool time", []float64{1}, "pool")
	hv.With("compile").Observe(0.5)
	hv.With("compile").Observe(0.25)
	hv.With("flow").Observe(3)

	render := func() string {
		var b strings.Builder
		r.Render(&b)
		return b.String()
	}
	out := render()
	for _, want := range []string{
		"tasks_total 7",
		"depth 9",
		"# TYPE tasks_total counter",
		"# TYPE depth gauge",
		"# TYPE pool_seconds histogram",
		`pool_seconds_count{pool="compile"} 2`,
		`pool_seconds_sum{pool="compile"} 0.75`,
		`pool_seconds_count{pool="flow"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}

	tasks, depth = 11, 5
	out = render()
	for _, want := range []string{"tasks_total 11", "depth 5"} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("callback not re-read at render, missing %q:\n%s", want, out)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("weird", "line one\nline two with back\\slash", func() float64 { return 0 })
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	want := `# HELP weird line one\nline two with back\\slash`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("help not escaped, got:\n%s", out)
	}
}

func TestParseLevelVariants(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "": "INFO", "info": "INFO",
		"warning": "WARN", "error": "ERROR",
	} {
		lv, err := ParseLevel(in)
		if err != nil || lv.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %s", in, lv, err, want)
		}
	}
	var b strings.Builder
	if lg, err := NewLogger(&b, 0, "text"); err != nil {
		t.Fatal(err)
	} else {
		lg.Info("hello", "k", "v")
	}
	if !strings.Contains(b.String(), "msg=hello") {
		t.Fatalf("text handler output: %s", b.String())
	}
	NopLogger().Error("discarded")
}
