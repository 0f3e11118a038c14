package telemetry

// A small Prometheus-text metrics registry: callback-backed counters and
// gauges, so existing atomic counters are exported without rewiring, and
// fixed-bucket histograms, optionally labeled. Render emits valid text
// exposition format: one # HELP and # TYPE line per family, series sorted
// within a family, label values escaped, and cumulative histogram buckets
// ending in le="+Inf".

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use. Registering the same name
// twice panics — metric names are program constants, so a duplicate is a
// programming error worth failing loudly on.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// family is one metric name: help, type, label schema and its children
// (one per distinct label-value tuple; unlabeled families have a single
// child keyed "").
type family struct {
	name    string
	help    string
	typ     string // counter | gauge | histogram
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	keys     []string
}

// child is one concrete series: a callback or a histogram.
type child struct {
	labelValues []string
	fn          func() float64 // counter/gauge: the value at render time
	counts      []atomic.Int64 // histogram: one per bucket, plus +Inf
	sumBits     atomic.Uint64  // histogram: math.Float64bits of the sum
	count       atomic.Int64   // histogram: total observations
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on duplicates or invalid names.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("telemetry: duplicate metric " + f.name)
	}
	f.children = make(map[string]*child)
	r.families[f.name] = f
	r.names = append(r.names, f.name)
	sort.Strings(r.names)
	return f
}

// childFor returns (creating if needed) the series for a label tuple.
func (f *family) childFor(labelValues ...string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: labelValues}
		if f.typ == "histogram" {
			c.counts = make([]atomic.Int64, len(f.buckets)+1)
		}
		f.children[key] = c
		f.keys = append(f.keys, key)
		sort.Strings(f.keys)
	}
	return c
}

// CounterFunc registers an unlabeled counter whose value is pulled from
// fn at render time — the bridge for pre-existing atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: "counter"})
	f.childFor().fn = fn
}

// GaugeFunc registers a gauge whose value is pulled from fn at render
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: "gauge"})
	f.childFor().fn = fn
}

// DefBuckets are the default latency buckets, in seconds: 100µs to 30s,
// roughly logarithmic — wide enough for a sub-millisecond gcd sweep
// point and a multi-second cordic job in the same family.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket cumulative histogram. The handle carries
// its bucket bounds so Observe needs no family lookup.
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one value. The per-bucket counts are non-cumulative
// internally (each value increments exactly one bucket); Render
// accumulates, keeping Observe at one binary search plus atomic adds.
func (h Histogram) Observe(v float64) {
	c := h.c
	i := sort.SearchFloat64s(h.buckets, v)
	c.counts[i].Add(1)
	c.count.Add(1)
	for {
		old := c.sumBits.Load()
		if c.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// Histogram registers an unlabeled histogram. Buckets must be sorted
// ascending; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{name: name, help: help, typ: "histogram", buckets: buckets})
	return Histogram{c: f.childFor(), buckets: buckets}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return HistogramVec{r.register(&family{name: name, help: help, typ: "histogram", buckets: buckets, labels: labels})}
}

// With returns the histogram for a label-value tuple.
func (v HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{c: v.f.childFor(labelValues...), buckets: v.f.buckets}
}

// Render writes the whole registry in Prometheus text exposition format,
// families sorted by name, series sorted by label values.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.render(w)
	}
}

// render writes one family.
func (f *family) render(w io.Writer) {
	f.mu.Lock()
	keys := append([]string(nil), f.keys...)
	kids := make([]*child, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(kids) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range kids {
		if f.typ == "histogram" {
			f.renderHistogram(w, c)
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatValue(c.fn()))
	}
}

// renderHistogram writes one histogram series: cumulative buckets, sum,
// count.
func (f *family) renderHistogram(w io.Writer, c *child) {
	var cum int64
	for i, b := range f.buckets {
		cum += c.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, c.labelValues, "le", formatValue(b)), cum)
	}
	cum += c.counts[len(f.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
		labelString(f.labels, c.labelValues, "le", "+Inf"), cum)
	sum := math.Float64frombits(c.sumBits.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.count.Load())
}

// labelString renders {k="v",...}, optionally with one extra pair (le),
// or "" when there are no labels at all.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
