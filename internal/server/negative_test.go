package server_test

// Negative-path and robustness tests of the pmsynthd API: malformed
// bodies, hostile field values, canceled client contexts, and goroutine
// hygiene. The serving layer's contract under attack is strict: every
// bad request gets a clean 4xx JSON error, no request — well-formed,
// malformed or abandoned — may leak a goroutine, and the process keeps
// serving afterwards.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// postRaw POSTs an arbitrary body and returns status and body bytes.
func postRaw(t *testing.T, url, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestMalformedBodies drives both POST endpoints with hostile payloads.
// Every one must produce a 4xx with a decodable JSON error body — never a
// 2xx, never a 5xx, never a hang.
func TestMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"truncated-json", "/v1/synthesize", `{"source": "func`},
		{"empty-body", "/v1/synthesize", ``},
		{"json-array", "/v1/synthesize", `[1,2,3]`},
		{"unknown-field", "/v1/synthesize", `{"source":"x","bogus":1}`},
		{"wrong-type", "/v1/synthesize", `{"source":42}`},
		{"missing-source", "/v1/synthesize", `{"options":{"budget":3}}`},
		{"bad-order-name", "/v1/synthesize", `{"source":"x","options":{"order":"sideways"}}`},
		{"bad-emit", "/v1/synthesize", `{"source":"func f(a: num) o: num = begin o = a + 1; end","emit":["edif"]}`},
		{"not-silage", "/v1/synthesize", `{"source":"definitely not silage"}`},
		{"negative-budget", "/v1/synthesize", `{"source":"func f(a: num) o: num = begin o = a + 1; end","options":{"budget":-5}}`},
		{"sweep-truncated", "/v1/sweep", `{"spec":`},
		{"sweep-unknown-field", "/v1/sweep", `{"source":"x","spec":{"volume":11}}`},
		{"sweep-missing-source", "/v1/sweep", `{"spec":{"budget_min":1,"budget_max":2}}`},
		{"sweep-bad-order", "/v1/sweep", `{"source":"x","spec":{"orders":["inside-out"]}}`},
		{"sweep-not-silage", "/v1/sweep", `{"source":"nope","spec":{}}`},
		// The removed scheduler-backend selector is refused, never
		// silently answered by the one remaining scheduler.
		{"removed-backend", "/v1/synthesize", `{"source":"func f(a: num) o: num = begin o = a + 1; end","options":{"budget":1,"forceDirected":true}}`},
		{"sweep-removed-backend", "/v1/sweep", `{"source":"func f(a: num) o: num = begin o = a + 1; end","spec":{"budgetMin":1,"budgetMax":2,"forceDirected":[true]}}`},
		// So is the removed exhaustive mux order.
		{"removed-order", "/v1/synthesize", `{"source":"func f(a: num) o: num = begin o = a + 1; end","options":{"budget":1,"order":"exhaustive"}}`},
		{"sweep-removed-order", "/v1/sweep", `{"source":"func f(a: num) o: num = begin o = a + 1; end","spec":{"budgetMin":1,"budgetMax":2,"orders":["exhaustive"]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, ts.URL+tc.path, "application/json", tc.body)
			if code < 400 || code >= 500 {
				t.Fatalf("status = %d, want 4xx; body %s", code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not a JSON error: %q (%v)", body, err)
			}
		})
	}

	// The server still works after the barrage.
	ok := client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 3},
	}
	var res client.SynthesizeResult
	if code := postJSON(t, ts.URL+"/v1/synthesize", ok, &res); code != http.StatusOK {
		t.Fatalf("sane request after barrage = %d, want 200", code)
	}
	if res.Fingerprint == "" {
		t.Fatal("missing fingerprint after barrage")
	}
}

// TestMethodAndPathValidation pins the mux-level 404/405 behavior.
func TestMethodAndPathValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	get, err := http.Get(ts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/synthesize = %d, want 405", get.StatusCode)
	}
	code, _ := postRaw(t, ts.URL+"/healthz", "application/json", "{}")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", code)
	}
	if code := getJSON(t, ts.URL+"/v1/nothing", nil); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
	// There is no batch endpoint: N sweeps are N POST /v1/sweep requests.
	if code, _ := postRaw(t, ts.URL+"/v1/batch", "application/json", `{"sweeps":[]}`); code != http.StatusNotFound {
		t.Errorf("POST /v1/batch = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/batch/b-0123456789abcdef", nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/batch/{id} = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/%20/events", nil); code != http.StatusNotFound {
		t.Errorf("blank job events = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/x/events?from=minus-one", nil); code != http.StatusNotFound {
		// Unknown job wins over the bad cursor; both are 4xx.
		t.Errorf("bad cursor on missing job = %d, want 404", code)
	}
}

// TestCanceledClientRequests abandons requests mid-flight — a synthesize
// with a canceled context, an events stream dropped while its job runs —
// and then proves the server neither wedges nor leaks: a subsequent
// request succeeds and the goroutine count settles back to its baseline.
func TestCanceledClientRequests(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, err := server.New(server.Config{JobWorkers: 1})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	// Synthesize with an already-canceled context: the client sees a
	// context error; the server must shrug it off.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(body))
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("canceled request unexpectedly succeeded")
	}

	// Start a slow one-worker sweep and abandon its event stream twice.
	sweep, _ := json.Marshal(client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 2000, Workers: 1},
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	var created client.SweepJob
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 2; i++ {
		sctx, scancel := context.WithCancel(context.Background())
		sreq, _ := http.NewRequestWithContext(sctx, http.MethodGet,
			ts.URL+"/v1/jobs/"+created.ID+"/events", nil)
		sresp, err := http.DefaultClient.Do(sreq)
		if err != nil {
			scancel()
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		sresp.Body.Read(buf) // consume one chunk, then walk away
		scancel()
		sresp.Body.Close()
	}

	// Cancel the job, make sure the server still answers.
	cresp, err := http.Post(ts.URL+"/v1/jobs/"+created.ID+"/cancel", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after abandonment: %v %v", hresp, err)
	}
	hresp.Body.Close()

	// Tear everything down and require the goroutine count to settle.
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOversizedSweepAxes drives each axis of the sweep cross product over
// the configured limit individually; every one must be a 422 with the
// limit named, and none may allocate the enumeration first (the response
// arrives fast even for astronomically large products).
func TestOversizedSweepAxes(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxSweepConfigs: 10})
	manyBudgets := make([]int, 11)
	for i := range manyBudgets {
		manyBudgets[i] = i + 1
	}
	cases := []client.SweepSpec{
		{Budgets: manyBudgets},
		{BudgetMin: 1, BudgetMax: 11},
		{BudgetMin: 1, BudgetMax: 2, IIs: []int{0, 1}, Orders: []string{"outputs-first", "inputs-first", "greedy-weight"}},
		{BudgetMin: 1, BudgetMax: 1_000_000_000},
	}
	for i, spec := range cases {
		start := time.Now()
		var e struct {
			Error string `json:"error"`
		}
		code := postJSON(t, ts.URL+"/v1/sweep", client.SweepRequest{Source: gcdSrc, Spec: spec}, &e)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("case %d: status %d, want 422 (%s)", i, code, e.Error)
		}
		if !strings.Contains(e.Error, "limit") {
			t.Errorf("case %d: error %q does not name the limit", i, e.Error)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("case %d: rejection took %v — did it enumerate first?", i, d)
		}
	}
}

// TestGarbageBarrage sprays deterministic pseudo-random bytes at every
// endpoint and requires a sub-500 response for each (the JSON decoder and
// validators own the failure, never a panic or a hang).
func TestGarbageBarrage(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	paths := []string{"/v1/synthesize", "/v1/sweep"}
	rnd := uint64(12345)
	next := func() byte {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return byte(rnd >> 56)
	}
	for i := 0; i < 60; i++ {
		n := int(next()) % 64
		body := make([]byte, n)
		for j := range body {
			body[j] = next()
		}
		path := paths[i%len(paths)]
		code, respBody := postRaw(t, ts.URL+path, "application/json", string(body))
		if code < 400 || code >= 500 {
			t.Fatalf("garbage #%d to %s: status %d, body %s (payload %q)",
				i, path, code, respBody, body)
		}
	}
}

// TestBadObjectiveRejected: the best view validates its objective name.
func TestBadObjectiveRejected(t *testing.T) {
	s, err := server.New(server.Config{JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	body := `{"source":"func inc(a: num<8>) out: num<8> = begin out = a + 1; end","spec":{"budgetMin":1,"budgetMax":2}}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			State string `json:"state"`
		}
		json.NewDecoder(r.Body).Decode(&info)
		r.Body.Close()
		if info.State == "succeeded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + created.ID + "/result?view=best&objective=speed")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad objective = %d, want 400", r.StatusCode)
	}
}
