package server_test

// End-to-end tests of the pmsynthd API over a live httptest listener.
// These pin the serving layer's contract: concurrent identical synthesize
// requests collapse to one underlying synthesis (proved by the cache
// hit/miss counters), sweep jobs stream a monotonic event log, are
// cancellable mid-flight, and return exactly the views a direct
// pmsynth.Sweep computes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/server"
)

// absDiffSrc is the paper's |a-b| running example: small and fast.
const absDiffSrc = `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

// gcdSrc is the gcd benchmark: a few ms per configuration, so a wide
// budget range at one worker makes a sweep that is comfortably in flight
// while the test cancels it.
const gcdSrc = `
func gcd(a: num<8>, b: num<8>) g: num<8>, nxt: num<8>, run: bool =
begin
    neq  = a != b;
    gtr  = a > b;
    mx   = if gtr -> a || b fi;
    mn   = if gtr -> b || a fi;
    diff = mx - mn;
    m3   = if neq -> diff || a fi;
    nxt  = if gtr -> m3 || b fi;
    m4   = if neq -> mn || a fi;
    g    = if gtr -> m4 || mn fi;
    run  = neq;
end
`

// newTestServer starts a server over httptest and tears it down after the
// test.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON POSTs a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
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
	return resp.StatusCode
}

// getJSON GETs a URL and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
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
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" {
		t.Fatalf("status = %q, want ok", health.Status)
	}
}

// TestSynthesizeConcurrentDedup is the acceptance-critical test: eight
// concurrent identical synthesize requests must run exactly one synthesis,
// proved by the admission counters /metrics serves (one miss, seven hits)
// and by exactly one response carrying cached=false.
func TestSynthesizeConcurrentDedup(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 3},
		Emit:    []string{"vhdl"},
	}
	const clients = 8
	responses := make([]client.SynthesizeResult, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(t, ts.URL+"/v1/synthesize", req, &responses[i])
		}(i)
	}
	wg.Wait()

	uncached := 0
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if !responses[i].Cached {
			uncached++
		}
		// Every client sees the same answer.
		if responses[i].Row != responses[0].Row {
			t.Fatalf("client %d row diverged: %+v vs %+v", i, responses[i].Row, responses[0].Row)
		}
		if responses[i].Fingerprint != responses[0].Fingerprint {
			t.Fatalf("fingerprints diverged")
		}
		if responses[i].VHDL == "" {
			t.Fatalf("client %d: missing requested VHDL", i)
		}
	}
	if uncached != 1 {
		t.Fatalf("%d responses computed, want exactly 1", uncached)
	}
	// The admission counters, served by /metrics: one miss, the rest hits.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pmsynthd_cache_misses 1",
		fmt.Sprintf("pmsynthd_cache_hits %d", clients-1),
		fmt.Sprintf("pmsynthd_synthesize_requests %d", clients),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		req  client.SynthesizeRequest
		code int
	}{
		{"missing source", client.SynthesizeRequest{Options: client.Options{Budget: 3}}, http.StatusBadRequest},
		{"bad order", client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3, Order: "bogus"}}, http.StatusBadRequest},
		{"bad emit", client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}, Emit: []string{"edif"}}, http.StatusBadRequest},
		{"bad resource class", client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3, Resources: map[string]int{"alu": 1}}}, http.StatusBadRequest},
		{"compile error", client.SynthesizeRequest{Source: "func broken(", Options: client.Options{Budget: 3}}, http.StatusUnprocessableEntity},
		{"infeasible budget", client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 1}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var errResp struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+"/v1/synthesize", tc.req, &errResp); code != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.code)
		}
		if errResp.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

// streamEvents reads the NDJSON event stream, calling observe per event,
// and returns every event once the stream ends.
func streamEvents(t *testing.T, url string, observe func(client.Event)) []client.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []client.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev client.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if observe != nil {
			observe(ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// checkMonotonic asserts the event log invariants: sequence numbers
// strictly increase, progress strictly increases, and the log terminates
// in the given state.
func checkMonotonic(t *testing.T, events []client.Event, terminal client.JobState) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	var lastSeq int64
	lastDone := -1
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq regressed: %+v", events)
		}
		lastSeq = ev.Seq
		if ev.Type == "progress" {
			if ev.Done <= lastDone {
				t.Fatalf("progress regressed from %d: %+v", lastDone, ev)
			}
			lastDone = ev.Done
		}
	}
	if got := events[len(events)-1].Type; got != string(terminal) {
		t.Fatalf("stream ended with %q, want %q", got, terminal)
	}
}

// TestSweepJobLifecycle runs a sweep job end to end: creation, status,
// monotonic event streaming, and result views identical to a direct
// pmsynth.Sweep call.
func TestSweepJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 9},
	}
	var created client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep create status = %d", code)
	}
	if created.ID == "" || created.Total != 5 {
		t.Fatalf("created = %+v, want 5 configurations", created)
	}

	// Stream events to completion: the log must be monotonic and end in
	// success.
	events := streamEvents(t, ts.URL+"/v1/jobs/"+created.ID+"/events", nil)
	checkMonotonic(t, events, client.StateSucceeded)
	final := events[len(events)-1]
	if final.Done != 5 || final.Total != 5 {
		t.Fatalf("final event = %+v, want 5/5", final)
	}

	var info client.JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID, &info); code != http.StatusOK {
		t.Fatalf("job status = %d", code)
	}
	if info.State != client.StateSucceeded || info.Done != 5 {
		t.Fatalf("info = %+v, want succeeded 5/5", info)
	}

	// The job's views must agree exactly with a direct in-process sweep.
	design, err := pmsynth.Compile(gcdSrc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pmsynth.Sweep(design, pmsynth.SweepSpec{BudgetMin: 5, BudgetMax: 9})
	if err != nil {
		t.Fatal(err)
	}

	var best client.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view=best", &best); code != http.StatusOK {
		t.Fatalf("best view status = %d", code)
	}
	wantBest := direct.Best(pmsynth.MaxPowerReduction)
	if best.Best == nil || wantBest == nil {
		t.Fatalf("best missing: served %+v, direct %+v", best.Best, wantBest)
	}
	if best.Best.Row == nil || *best.Best.Row != client.Row(wantBest.Row) {
		t.Fatalf("served best row %+v != direct %+v", best.Best.Row, wantBest.Row)
	}
	if best.Best.Options.Budget != wantBest.Options.Budget {
		t.Fatalf("served best budget %d != direct %d", best.Best.Options.Budget, wantBest.Options.Budget)
	}

	var pareto client.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view=pareto", &pareto); code != http.StatusOK {
		t.Fatalf("pareto view status = %d", code)
	}
	wantPareto := direct.Pareto()
	if len(pareto.Pareto) != len(wantPareto) {
		t.Fatalf("pareto size %d != direct %d", len(pareto.Pareto), len(wantPareto))
	}
	for i, p := range pareto.Pareto {
		if p.Row == nil || *p.Row != client.Row(wantPareto[i].Row) {
			t.Fatalf("pareto[%d] row %+v != direct %+v", i, p.Row, wantPareto[i].Row)
		}
	}

	var table client.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view=table", &table); code != http.StatusOK {
		t.Fatalf("table view status = %d", code)
	}
	if table.Table != direct.Table() {
		t.Fatalf("served table differs from direct:\n%s\n---\n%s", table.Table, direct.Table())
	}
}

// TestSweepJobCancelMidFlight cancels a deliberately wide one-worker sweep
// after its first progress event and verifies the job lands in canceled
// with partial progress.
func TestSweepJobCancelMidFlight(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SweepRequest{
		Source: gcdSrc,
		// A single configuration takes on the order of 100µs, so ~4000
		// of them at one worker give a few hundred milliseconds of
		// runway — orders of magnitude more than the cancel round-trip.
		Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 4000, Workers: 1},
	}
	var created client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep create status = %d", code)
	}

	canceled := make(chan struct{})
	var once sync.Once
	events := streamEvents(t, ts.URL+"/v1/jobs/"+created.ID+"/events", func(ev client.Event) {
		if ev.Type == "progress" {
			once.Do(func() {
				code := postJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/cancel", struct{}{}, nil)
				if code != http.StatusOK {
					t.Errorf("cancel status = %d", code)
				}
				close(canceled)
			})
		}
	})
	select {
	case <-canceled:
	default:
		t.Fatalf("stream ended without any progress event: %+v", events)
	}
	checkMonotonic(t, events, client.StateCanceled)
	final := events[len(events)-1]
	if final.Done >= final.Total {
		t.Fatalf("cancel landed after completion (%d/%d); widen the sweep", final.Done, final.Total)
	}

	var info client.JobInfo
	getJSON(t, ts.URL+"/v1/jobs/"+created.ID, &info)
	if info.State != client.StateCanceled {
		t.Fatalf("state = %s, want canceled", info.State)
	}
	// A canceled sweep has no result view.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result on canceled job = %d, want 409", code)
	}
}

// TestSweepDedup: an identical second submission joins the live job
// instead of starting another sweep.
func TestSweepDedup(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 40, Workers: 1},
	}
	var first, second client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &first); code != http.StatusAccepted {
		t.Fatalf("first sweep status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &second); code != http.StatusOK {
		t.Fatalf("second sweep status = %d", code)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("second submission not deduped onto first: %+v vs %+v", second, first)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatal("fingerprints differ for identical requests")
	}
	// A different spec is a different job.
	other := req
	other.Spec.BudgetMax = 41
	var third client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", other, &third); code != http.StatusAccepted {
		t.Fatalf("third sweep status = %d", code)
	}
	if third.ID == first.ID {
		t.Fatal("distinct spec deduped onto the first job")
	}
}

// TestRequestSizeLimits: one request must never be able to size an
// allocation the daemon dies under.
func TestRequestSizeLimits(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxSweepConfigs: 100})
	// A budget range projecting billions of configurations is rejected
	// before anything is enumerated.
	huge := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 1, BudgetMax: 2_000_000_000},
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/sweep", huge, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("huge sweep status = %d, want 422", code)
	}
	if !strings.Contains(errResp.Error, "limit") {
		t.Fatalf("huge sweep error = %q", errResp.Error)
	}
	// The cross product counts too, not just budgets.
	wide := client.SweepRequest{
		Source: gcdSrc,
		Spec: client.SweepSpec{
			BudgetMin: 5, BudgetMax: 60,
			Orders: []string{"outputs-first", "inputs-first"},
		},
	}
	if code := postJSON(t, ts.URL+"/v1/sweep", wide, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("112-config sweep under a 100 limit = %d, want 422", code)
	}
	// Same guard on the one-shot path.
	big := client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 1 << 30},
	}
	if code := postJSON(t, ts.URL+"/v1/synthesize", big, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("huge budget synthesize = %d, want 422", code)
	}
	// A body over 1 MiB is refused with the uniform error body before
	// anything decodes it.
	long := client.SynthesizeRequest{Source: strings.Repeat(" ", 1<<20), Options: client.Options{Budget: 3}}
	errResp.Error = ""
	if code := postJSON(t, ts.URL+"/v1/synthesize", long, &errResp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB body status = %d, want 413", code)
	}
	if !strings.Contains(errResp.Error, "exceeds") {
		t.Fatalf("1 MiB body error = %q", errResp.Error)
	}
	// A sane request still works under the tight limit.
	ok := client.SweepRequest{Source: gcdSrc, Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 9}}
	if code := postJSON(t, ts.URL+"/v1/sweep", ok, nil); code != http.StatusAccepted {
		t.Fatalf("sane sweep status = %d, want 202", code)
	}
}

func TestJobEndpointsValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing job status = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs/nope/cancel", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("missing job cancel = %d, want 404", code)
	}

	// Result before completion is a 409: the wide one-worker sweep is
	// still running when the request lands.
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 4000, Workers: 1},
	}
	var created client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep create status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("early result status = %d, want 409", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view=bogus", nil); code != http.StatusConflict {
		// View validation happens after readiness; either way not 200.
		t.Fatalf("bogus view status = %d", code)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/cancel", struct{}{}, nil)

	// Bad enumeration surfaces at submission time.
	bad := client.SweepRequest{Source: gcdSrc, Spec: client.SweepSpec{BudgetMin: 9, BudgetMax: 5}}
	if code := postJSON(t, ts.URL+"/v1/sweep", bad, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad range status = %d, want 422", code)
	}

	var list []client.JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("job list status = %d", code)
	}
	if len(list) < 1 {
		t.Fatal("job list empty")
	}
}
