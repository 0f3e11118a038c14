package server_test

// End-to-end tests of the telemetry surface: every response carries its
// trace id (header and body), a sweep job's trace assembles into the
// span tree the architecture promises — admission spans under the HTTP
// root, one span per sweep point, one span per flow pass — with intact
// parent links and real durations, and the trace endpoints answer 404
// for jobs whose trace was never retained.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// postJSONResp is postJSON plus the raw *http.Response, for tests that
// need response headers.
func postJSONResp(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return resp
}

// findSpans returns every span named name anywhere in the forest.
func findSpans(roots []*telemetry.SpanNode, name string) []*telemetry.SpanNode {
	var out []*telemetry.SpanNode
	var walk func(ns []*telemetry.SpanNode)
	walk = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			if n.Name == name {
				out = append(out, n)
			}
			walk(n.Children)
		}
	}
	walk(roots)
	return out
}

// standardPasses names the span of every pass a point runs, in order: the
// controllers are built on demand, never as a per-point pass.
var standardPasses = []string{"pass:schedule", "pass:bind", "pass:baseline", "pass:activity"}

// passNames lists the pass spans in the forest, depth first.
func passNames(ns []*telemetry.SpanNode) []string {
	var out []string
	for _, n := range ns {
		if strings.HasPrefix(n.Name, "pass:") {
			out = append(out, n.Name)
		}
		out = append(out, passNames(n.Children)...)
	}
	return out
}

// TestSweepTraceSpanTree submits a sweep, waits for it, and verifies the
// job's trace covers the whole path: HTTP root -> compile + queue-wait,
// job run -> one point span per configuration -> one span per flow
// pass, every span with a positive duration and a parent link that
// matches its position in the tree.
func TestSweepTraceSpanTree(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	req := client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 3},
	}
	var created client.SweepJob
	resp := postJSONResp(t, ts.URL+"/v1/sweep", req, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep create status = %d", resp.StatusCode)
	}
	if created.Trace == "" {
		t.Fatal("created response carries no trace id")
	}
	if hdr := resp.Header.Get("X-Pmsynthd-Trace"); hdr != created.Trace {
		t.Fatalf("X-Pmsynthd-Trace = %q, body trace = %q", hdr, created.Trace)
	}

	events := streamEvents(t, ts.URL+"/v1/jobs/"+created.ID+"/events", nil)
	checkMonotonic(t, events, client.StateSucceeded)

	// The job snapshot carries the same trace handle.
	var info client.JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID, &info); code != http.StatusOK {
		t.Fatalf("job status = %d", code)
	}
	if info.Trace != created.Trace {
		t.Fatalf("job snapshot trace = %q, want %q", info.Trace, created.Trace)
	}

	var snap telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/trace", &snap); code != http.StatusOK {
		t.Fatalf("trace status = %d", code)
	}
	if snap.ID != created.Trace {
		t.Fatalf("trace id = %q, want %q", snap.ID, created.Trace)
	}
	if snap.Dropped != 0 {
		t.Fatalf("trace dropped %d spans", snap.Dropped)
	}

	// The HTTP root span carries the admission spans.
	roots := findSpans(snap.Roots, "POST /v1/sweep")
	if len(roots) != 1 {
		t.Fatalf("%d 'POST /v1/sweep' root spans, want 1", len(roots))
	}
	root := roots[0]
	for _, name := range []string{"compile", "queue-wait", "run"} {
		kids := findSpans(root.Children, name)
		if len(kids) != 1 {
			t.Fatalf("%d %q spans under the root, want 1", len(kids), name)
		}
	}

	// One point span per configuration under the run span, each with one
	// span per pipeline pass underneath.
	run := findSpans(root.Children, "run")[0]
	points := findSpans(run.Children, "point")
	if len(points) != created.Total {
		t.Fatalf("%d point spans, want %d", len(points), created.Total)
	}
	for _, pt := range points {
		if got := passNames(pt.Children); !slices.Equal(got, standardPasses) {
			t.Fatalf("point span %d has pass spans %v, want %v", pt.ID, got, standardPasses)
		}
	}

	// Durations are real and parent links match tree positions.
	var walk func(parent *telemetry.SpanNode, ns []*telemetry.SpanNode)
	walk = func(parent *telemetry.SpanNode, ns []*telemetry.SpanNode) {
		for _, n := range ns {
			if n.DurationNs <= 0 {
				t.Errorf("span %d %q has duration %d, want > 0", n.ID, n.Name, n.DurationNs)
			}
			if parent != nil && n.Parent != parent.ID {
				t.Errorf("span %d %q has parent %d, want %d", n.ID, n.Name, n.Parent, parent.ID)
			}
			walk(n, n.Children)
		}
	}
	walk(nil, snap.Roots)

	// The trace is also in the recent-traces listing.
	var recent []telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/debug/traces?n=100", &recent); code != http.StatusOK {
		t.Fatalf("debug traces status = %d", code)
	}
	found := false
	for _, r := range recent {
		if r.ID == created.Trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %q missing from /debug/traces", created.Trace)
	}
}

// TestSynthesizeTraceHeader pins that one-shot synthesis responses carry
// the trace id in both the body and the response header.
func TestSynthesizeTraceHeader(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 2},
	}
	var res client.SynthesizeResult
	resp := postJSONResp(t, ts.URL+"/v1/synthesize", req, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status = %d", resp.StatusCode)
	}
	if res.Trace == "" {
		t.Fatal("synthesize response carries no trace id")
	}
	if hdr := resp.Header.Get("X-Pmsynthd-Trace"); hdr != res.Trace {
		t.Fatalf("X-Pmsynthd-Trace = %q, body trace = %q", hdr, res.Trace)
	}
}

// TestSynthesizeTraceSpans: a synthesize runs as a one-point sweep job,
// so its trace holds the same admission, run, point and pass spans a
// sweep's does.
func TestSynthesizeTraceSpans(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}}
	var res client.SynthesizeResult
	if code := postJSON(t, ts.URL+"/v1/synthesize", req, &res); code != http.StatusOK {
		t.Fatalf("synthesize status = %d", code)
	}
	var recent []telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/debug/traces?n=100", &recent); code != http.StatusOK {
		t.Fatalf("debug traces status = %d", code)
	}
	var snap *telemetry.Snapshot
	for i := range recent {
		if recent[i].ID == res.Trace {
			snap = &recent[i]
		}
	}
	if snap == nil {
		t.Fatalf("trace %q missing from /debug/traces", res.Trace)
	}
	for _, name := range []string{"queue-wait", "run", "point"} {
		if got := findSpans(snap.Roots, name); len(got) != 1 {
			t.Errorf("synthesize trace has %d %q spans, want 1", len(got), name)
		}
	}
	if got := passNames(snap.Roots); !slices.Equal(got, standardPasses) {
		t.Errorf("synthesize trace has pass spans %v, want %v", got, standardPasses)
	}
}

// TestJobTraceNotFound pins the 404 contract of the trace endpoint.
func TestJobTraceNotFound(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if code := getJSON(t, ts.URL+"/v1/jobs/j-does-not-exist/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace status = %d, want 404", code)
	}
}

// metricValue scrapes /metrics for the sample whose series (name plus
// labels) is exactly series; 0 when there is none.
func metricValue(t *testing.T, baseURL, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(fetchRaw(t, baseURL+"/metrics"), "\n") {
		if name, val, _ := strings.Cut(line, " "); name == series {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, val)
			}
			return n
		}
	}
	return 0
}

// TestStoreOpHistograms: the store.get and store.put spans feed
// pmsynthd_store_op_seconds{op}. A computed sweep writes its table (put);
// the same sweep on a restarted daemon over the same directory is
// answered by a read (get).
func TestStoreOpHistograms(t *testing.T) {
	dir := t.TempDir()
	req := client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 3},
	}
	var compiles atomic.Int64
	_, ts1, shutdown1 := newStoreServer(t, dir, &compiles)
	var created client.SweepJob
	if code := postJSON(t, ts1.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("cold sweep = %d, want 202", code)
	}
	waitJobState(t, ts1.URL, created.ID, client.StateSucceeded)
	if n := metricValue(t, ts1.URL, `pmsynthd_store_op_seconds_count{op="put"}`); n < 1 {
		t.Fatalf("put count after a computed sweep = %d, want >= 1", n)
	}
	shutdown1()

	_, ts2, shutdown2 := newStoreServer(t, dir, &compiles)
	defer shutdown2()
	var warm client.SweepJob
	if code := postJSON(t, ts2.URL+"/v1/sweep", req, &warm); code != http.StatusOK || !warm.Cached {
		t.Fatalf("warm sweep = %d cached=%v, want 200 cached", code, warm.Cached)
	}
	if n := metricValue(t, ts2.URL, `pmsynthd_store_op_seconds_count{op="get"}`); n < 1 {
		t.Fatalf("get count after a warm restart = %d, want >= 1", n)
	}
}

// TestJoinAtSubmitSkipsQueueWait: two identical sweeps held in compile
// together both miss the lookup, so one commits its job at Submit and the
// other joins it there. The joiner's queue-wait span ends at once,
// marked joined, and pmsynthd_job_queue_wait_seconds counts only the one
// worker pickup.
func TestJoinAtSubmitSkipsQueueWait(t *testing.T) {
	var arrived atomic.Int64
	bothCompiling := make(chan struct{})
	_, ts := newTestServer(t, server.Config{
		CompileHook: func(string) {
			if arrived.Add(1) == 2 {
				close(bothCompiling)
			}
			<-bothCompiling
		},
	})
	req := client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 3}}
	var jobs [2]client.SweepJob
	var codes [2]int
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, err := postJSONErr(ts.URL+"/v1/sweep", req, &jobs[i])
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
			}
			codes[i] = code
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if jobs[0].ID != jobs[1].ID || jobs[0].Deduped == jobs[1].Deduped {
		t.Fatalf("submissions = %d %+v and %d %+v; want one job, created once and joined once",
			codes[0], jobs[0], codes[1], jobs[1])
	}
	waitJobState(t, ts.URL, jobs[0].ID, client.StateSucceeded)

	if n := metricValue(t, ts.URL, "pmsynthd_job_queue_wait_seconds_count"); n != 1 {
		t.Fatalf("queue-wait histogram counted %d waits, want the 1 worker pickup", n)
	}
	var recent []telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/debug/traces?n=100", &recent); code != http.StatusOK {
		t.Fatalf("debug traces status = %d", code)
	}
	waits, joined := 0, 0
	for _, snap := range recent {
		for _, sp := range findSpans(snap.Roots, "queue-wait") {
			waits++
			if slices.Contains(sp.Attrs, telemetry.Attr{Key: "joined", Value: "true"}) {
				joined++
			}
		}
	}
	if waits != 2 || joined != 1 {
		t.Fatalf("%d queue-wait spans, %d marked joined; want 2 and 1", waits, joined)
	}
}

// runtimeSeriesValues scrapes /metrics once and returns the value of
// every pmsynthd_go_* and pmsynthd_process_cpu_* series.
func runtimeSeriesValues(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(fetchRaw(t, baseURL+"/metrics"), "\n") {
		name, val, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "pmsynthd_go_") && !strings.HasPrefix(name, "pmsynthd_process_cpu_") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", name, val)
		}
		out[name] = v
	}
	return out
}

// TestRuntimeSeriesGrowAcrossASweep: /metrics exports the Go runtime's CPU
// classes, GC cycles and heap allocation and the process CPU, and a sweep
// moves them. The runtime updates its CPU classes at the end of each GC
// cycle, so the test ends the sweep with one.
func TestRuntimeSeriesGrowAcrossASweep(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	before := runtimeSeriesValues(t, ts.URL)
	grow := []string{
		"pmsynthd_go_cpu_gc_seconds", "pmsynthd_go_cpu_total_seconds",
		"pmsynthd_go_gc_cycles", "pmsynthd_go_heap_alloc_bytes",
	}
	keep := []string{
		"pmsynthd_go_cpu_user_seconds", "pmsynthd_go_cpu_idle_seconds",
		"pmsynthd_process_cpu_user_seconds", "pmsynthd_process_cpu_system_seconds",
	}
	for _, name := range append(grow, keep...) {
		if _, ok := before[name]; !ok {
			t.Fatalf("series %s missing from /metrics", name)
		}
	}
	if len(before) != len(grow)+len(keep) {
		t.Fatalf("runtime series %v, want exactly %v and %v", before, grow, keep)
	}

	var created client.SweepJob
	req := client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 6}}
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep = %d, want 202", code)
	}
	waitJobState(t, ts.URL, created.ID, client.StateSucceeded)
	runtime.GC()
	after := runtimeSeriesValues(t, ts.URL)

	for _, name := range grow {
		if after[name] <= before[name] {
			t.Errorf("%s = %v after the sweep, want more than %v", name, after[name], before[name])
		}
	}
	for _, name := range keep {
		if after[name] < before[name] {
			t.Errorf("%s fell from %v to %v", name, before[name], after[name])
		}
	}
	cpu := func(m map[string]float64) float64 {
		return m["pmsynthd_process_cpu_user_seconds"] + m["pmsynthd_process_cpu_system_seconds"]
	}
	if cpu(after) <= cpu(before) {
		t.Errorf("process CPU %v after the sweep, want more than %v", cpu(after), cpu(before))
	}
}
