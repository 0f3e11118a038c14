package client_test

// SDK round-trip tests against a real in-process pmsynthd (the same
// handler the daemon serves), pinning the wire compatibility of the
// client-owned types: synthesize, sweep-to-completion over the event
// stream, and the 429/Retry-After retry path.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

const absDiffSrc = `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

// gcdSrc is heavy enough that a wide one-worker sweep stays running
// while the test saturates the admission queue.
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

// newClient spins up an in-process pmsynthd and a client against it.
func newClient(t *testing.T, cfg server.Config, opts ...client.Option) *client.Client {
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
	return client.New(ts.URL, opts...)
}

func TestHealthAndMetrics(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["pmsynthd_cache_hits"]; !ok {
		t.Fatalf("metrics missing cache counters: %v", m)
	}
}

func TestSynthesizeRoundTrip(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	res, err := c.Synthesize(ctx, client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 3},
		Emit:    []string{"vhdl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == "" || res.Cached {
		t.Fatalf("first synthesize = %+v", res)
	}
	if res.Row.Circuit != "absdiff" || res.Row.Steps != 3 {
		t.Fatalf("row = %+v", res.Row)
	}
	if res.Row.PowerReductionPct <= 0 {
		t.Fatalf("power reduction = %v, want > 0 (slack enables shutdown)", res.Row.PowerReductionPct)
	}
	if !strings.Contains(res.VHDL, "entity") {
		t.Fatalf("vhdl artifact missing: %q", res.VHDL)
	}
	// The identical request is a cache hit with an identical row.
	again, err := c.Synthesize(ctx, client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 3},
		Emit:    []string{"vhdl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Row != res.Row || again.Fingerprint != res.Fingerprint {
		t.Fatalf("second synthesize = %+v", again)
	}

	// A definitive refusal surfaces as a typed, non-temporary APIError.
	_, err = c.Synthesize(ctx, client.SynthesizeRequest{Source: "not silage"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Temporary() || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("bad-source error = %v", err)
	}
}

func TestSweepToCompletionViaEventStream(t *testing.T) {
	c := newClient(t, server.Config{JobWorkers: 2})
	ctx := context.Background()
	var events []client.Event
	job, info, err := c.SweepAndWait(ctx, client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 5},
	}, func(ev client.Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if job.Total != 4 {
		t.Fatalf("total = %d, want 4", job.Total)
	}
	if info.State != client.StateSucceeded || info.Done != info.Total {
		t.Fatalf("final info = %+v", info)
	}
	// The observed stream is ordered and complete: created first,
	// succeeded last, seqs strictly increasing, progress monotonic.
	if len(events) < 2 || events[0].Type != "created" || events[len(events)-1].Type != "succeeded" {
		t.Fatalf("events = %+v", events)
	}
	lastSeq, lastDone := int64(0), -1
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq regressed: %+v", events)
		}
		lastSeq = ev.Seq
		if ev.Type == "progress" {
			if ev.Done <= lastDone {
				t.Fatalf("done regressed: %+v", events)
			}
			lastDone = ev.Done
		}
	}

	// Result views through the SDK.
	best, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "best", Objective: "power"})
	if err != nil {
		t.Fatal(err)
	}
	if best.Best == nil || best.Best.Row == nil || best.Best.Row.PowerReductionPct <= 0 {
		t.Fatalf("best = %+v", best)
	}
	pareto, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "pareto"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pareto.Pareto) == 0 {
		t.Fatalf("pareto empty: %+v", pareto)
	}
	table, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "table"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.Table, "SWEEP absdiff — 4 configurations") {
		t.Fatalf("table = %q", table.Table)
	}

	// An identical resubmission dedupes onto the live (succeeded) job.
	dup, err := c.Sweep(ctx, client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != info.ID {
		t.Fatalf("dup = %+v", dup)
	}
}

// TestRetryOn429 drives the retry policy against a scripted server: two
// sheds with Retry-After, then acceptance. The client must resubmit the
// identical body and succeed without surfacing the 429s.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"sweep admission queue is full (capacity 1); retry after 0s"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1","state":"pending","total":3,"fingerprint":"f"}`))
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL, client.WithRetries(3, time.Second))
	job, err := c.Sweep(context.Background(), client.SweepRequest{Source: "x"})
	if err != nil {
		t.Fatalf("retried sweep failed: %v", err)
	}
	if job.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("job = %+v after %d calls", job, calls.Load())
	}
}

// TestRetryBudgetExhausted: a server that always sheds eventually
// surfaces the 429 as an APIError carrying the Retry-After hint.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"full"}`))
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL, client.WithRetries(2, time.Second))
	_, err := c.Sweep(context.Background(), client.SweepRequest{Source: "x"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v", err)
	}
	if !apiErr.Temporary() {
		t.Fatal("429 not marked temporary")
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

// TestRetryOn429LiveServer exercises the retry path end-to-end against a
// real saturated pmsynthd: the first submission is shed (queue full), the
// retry lands after the hog is canceled.
func TestRetryOn429LiveServer(t *testing.T) {
	s, err := server.New(server.Config{
		JobWorkers:     1,
		MaxPendingJobs: 1,
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := client.New(ts.URL, client.WithRetries(5, time.Second))
	ctx := context.Background()

	// Saturate: one running hog, one queued job.
	hog, err := c.Sweep(ctx, client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 4000, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		info, err := c.Job(ctx, hog.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == client.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued, err := c.Sweep(ctx, client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 4001, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Free capacity shortly after the third submission's first attempt
	// is shed, so one of its retries succeeds.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c.CancelJob(context.Background(), hog.ID)
		c.CancelJob(context.Background(), queued.ID)
	}()
	job, err := c.Sweep(ctx, client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 4},
	})
	if err != nil {
		t.Fatalf("submission never admitted despite retries: %v", err)
	}
	if _, err := c.WaitJob(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// The server really did shed at least once.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["pmsynthd_sweep_shed"] < 1 {
		t.Fatalf("sweep_shed = %d, want >= 1", m["pmsynthd_sweep_shed"])
	}
}

func TestStreamEventsStop(t *testing.T) {
	c := newClient(t, server.Config{JobWorkers: 1})
	ctx := context.Background()
	job, err := c.Sweep(ctx, client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stop after the first event: StreamEvents returns nil.
	n := 0
	err = c.StreamEvents(ctx, job.ID, 0, func(ev client.Event) error {
		n++
		return client.StopStreaming
	})
	if err != nil || n != 1 {
		t.Fatalf("stop: err=%v n=%d", err, n)
	}
	// Unknown jobs surface the 404.
	err = c.StreamEvents(ctx, "nope", 0, func(client.Event) error { return nil })
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("stream of unknown job = %v", err)
	}
	if _, err := c.WaitJob(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartThroughSDK: the client observes the persistence tier — a
// sweep submitted to a restarted server returns already-succeeded with
// Cached set, and SweepAndWait handles it without streaming.
func TestWarmStartThroughSDK(t *testing.T) {
	dir := t.TempDir()
	req := client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 4},
	}

	s1, err := server.New(server.Config{JobWorkers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c1 := client.New(ts1.URL)
	_, info1, err := c1.SweepAndWait(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	table1, err := c1.JobResult(context.Background(), info1.ID, client.ResultQuery{View: "table"})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	s2, err := server.New(server.Config{JobWorkers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	c2 := client.New(ts2.URL)
	var events []string
	job, info2, err := c2.SweepAndWait(context.Background(), req, func(ev client.Event) {
		events = append(events, ev.Type)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Cached || info2.State != client.StateSucceeded {
		t.Fatalf("warm job = %+v, info = %+v", job, info2)
	}
	// A restored job is terminal at submission, yet its event log still
	// reaches onEvent: it replays, like any finished job's.
	if want := []string{"created", "succeeded"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("restored job events = %v, want %v", events, want)
	}
	table2, err := c2.JobResult(context.Background(), info2.ID, client.ResultQuery{View: "table"})
	if err != nil {
		t.Fatal(err)
	}
	if table1.Table != table2.Table {
		t.Fatalf("tables diverged across restart:\n%s\n%s", table1.Table, table2.Table)
	}
}

func TestClientOptionsAndErrors(t *testing.T) {
	c := newClient(t, server.Config{},
		client.WithHTTPClient(http.DefaultClient),
		client.WithUserAgent("pmclient-test/1"),
		client.WithRetries(0, 0))
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	// Jobs listing round-trips (empty server: empty list).
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 0 {
		t.Fatalf("Jobs = %v, %v", jobs, err)
	}
	// APIError formats status and message.
	_, err = c.Job(ctx, "missing")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(apiErr.Error(), "404") || !strings.Contains(apiErr.Error(), "missing") {
		t.Fatalf("Error() = %q", apiErr.Error())
	}
}

func TestWaitJobUnknown(t *testing.T) {
	c := newClient(t, server.Config{})
	_, err := c.WaitJob(context.Background(), "missing", nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("WaitJob(missing) = %v", err)
	}
}

func TestStreamEventsResume(t *testing.T) {
	c := newClient(t, server.Config{JobWorkers: 1})
	ctx := context.Background()
	job, err := c.Sweep(ctx, client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Resume from the middle: only later events arrive, in order.
	var all []client.Event
	if err := c.StreamEvents(ctx, job.ID, 0, func(ev client.Event) error {
		all = append(all, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mid := all[len(all)/2].Seq
	var tail []client.Event
	if err := c.StreamEvents(ctx, job.ID, mid, func(ev client.Event) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tail {
		if ev.Seq <= mid {
			t.Fatalf("resumed stream replayed seq %d <= %d", ev.Seq, mid)
		}
	}
	if tail[len(tail)-1].Seq != all[len(all)-1].Seq {
		t.Fatalf("resumed stream missed the tail: %+v vs %+v", tail, all)
	}
}
