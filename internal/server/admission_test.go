package server_test

// Tests of the lock-free admission pipeline: no client-controlled work
// (Compile, Enumerate) may run under the server mutex, identical
// submissions must collapse onto one job and one execution even when
// they race through compile, and the bounded admission queue must shed
// with 429 + Retry-After instead of buffering unboundedly. All of these
// run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/gen"
	"repro/internal/server"
)

// postJSONErr POSTs a JSON body and decodes the JSON response into out,
// returning errors instead of failing the test — safe to call from
// spawned goroutines, where t.Fatal (runtime.Goexit) must not run.
func postJSONErr(url string, body interface{}, out interface{}) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad response body %q: %w", data, err)
		}
	}
	return resp.StatusCode, nil
}

// hostileSrc is a distinct-by-name variant the compile hook can target.
const hostileSrc = `
func hostile(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

// waitJobState polls a job's status endpoint until it reaches want.
func waitJobState(t *testing.T, baseURL, id string, want client.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var info client.JobInfo
		if code := getJSON(t, baseURL+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("job status = %d", code)
		}
		if info.State == want {
			return
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, info.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestHostileCompileDoesNotBlockSubmissions is the head-of-line
// regression test for the tentpole invariant: a sweep submission whose
// compile is arbitrarily slow (here: blocked indefinitely on a channel)
// must not delay an unrelated concurrent submission. Under the old
// admission path — Compile under s.mu — the unrelated submission below
// would hang until the hostile compile finished; now it must complete
// while the hostile compile is still parked inside the compiler.
func TestHostileCompileDoesNotBlockSubmissions(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var enteredOnce, releaseOnce sync.Once
	releaseCompile := func() { releaseOnce.Do(func() { close(release) }) }
	_, ts := newTestServer(t, server.Config{
		CompileHook: func(src string) {
			if strings.Contains(src, "hostile") {
				enteredOnce.Do(func() { close(entered) })
				<-release
			}
		},
	})
	// Unblock the parked compile before the server tears down (cleanups
	// run LIFO, so this fires before newTestServer's Close).
	t.Cleanup(releaseCompile)

	hostileDone := make(chan int, 1)
	go func() {
		var resp client.SweepJob
		code, err := postJSONErr(ts.URL+"/v1/sweep",
			client.SweepRequest{Source: hostileSrc, Spec: client.SweepSpec{BudgetMin: 3, BudgetMax: 4}},
			&resp)
		if err != nil {
			t.Errorf("hostile sweep: %v", err)
		}
		hostileDone <- code
	}()
	<-entered // the hostile submission is now inside Compile and stuck

	// An unrelated submission must sail through while the hostile one is
	// parked. The bound is generous — the point is "milliseconds, not
	// forever": with compile under the lock this would time out.
	start := time.Now()
	var created client.SweepJob
	code := postJSON(t, ts.URL+"/v1/sweep",
		client.SweepRequest{Source: gcdSrc, Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 7}},
		&created)
	elapsed := time.Since(start)
	if code != http.StatusAccepted {
		t.Fatalf("unrelated sweep status = %d, want 202", code)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("unrelated submission took %v behind a blocked compile — head-of-line blocking is back", elapsed)
	}
	// The same must hold for the synthesize path, which shares the
	// admission pipeline but must not share the hostile key's fate.
	if code := postJSON(t, ts.URL+"/v1/synthesize",
		client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}}, nil); code != http.StatusOK {
		t.Fatalf("synthesize behind blocked compile = %d, want 200", code)
	}

	select {
	case code := <-hostileDone:
		t.Fatalf("hostile submission finished early with %d — the hook never blocked?", code)
	default:
	}
	releaseCompile()
	if code := <-hostileDone; code != http.StatusAccepted {
		t.Fatalf("hostile sweep after release = %d, want 202", code)
	}
}

// TestSweepSubmitRaceOneJob: N concurrent identical sweep submissions
// may each compile, and /metrics counts every compile, but they must
// collapse to exactly one job (the commit-time re-check) and one
// execution, with every client handed the same job id.
func TestSweepSubmitRaceOneJob(t *testing.T) {
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 9},
	}
	fp := pmsynth.SweepFingerprint(gcdSrc, pmsynth.SweepSpec{BudgetMin: 5, BudgetMax: 9})
	var compiles, executions atomic.Int64
	_, ts := newTestServer(t, server.Config{
		CompileHook: func(string) { compiles.Add(1) },
		SweepHook: func(got string) {
			if got == fp {
				executions.Add(1)
			}
		},
	})
	const clients = 8
	responses := make([]client.SweepJob, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, err := postJSONErr(ts.URL+"/v1/sweep", req, &responses[i])
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			codes[i] = code
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	committed := 0
	for i := 0; i < clients; i++ {
		switch codes[i] {
		case http.StatusAccepted:
			committed++
			if responses[i].Deduped {
				t.Fatalf("client %d: 202 with deduped=true", i)
			}
		case http.StatusOK:
			if !responses[i].Deduped {
				t.Fatalf("client %d: 200 without deduped", i)
			}
		default:
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if responses[i].ID != responses[0].ID {
			t.Fatalf("job ids diverged: %q vs %q", responses[i].ID, responses[0].ID)
		}
		if responses[i].Fingerprint != responses[0].Fingerprint {
			t.Fatal("fingerprints diverged for identical requests")
		}
	}
	if committed != 1 {
		t.Fatalf("%d submissions committed a job, want exactly 1", committed)
	}
	waitJobState(t, ts.URL, responses[0].ID, client.StateSucceeded)
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", n, clients)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pmsynthd_compile_seconds_count %d\n", compiles.Load())
	if metrics := readAll(t, resp); !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing %q:\n%s", want, metrics)
	}
}

// TestFinishedSweepsPinNoDesign: a finished sweep keeps its decoded
// table and nothing it was computed from — no compiled design, no
// per-point synthesis — so the live heap a daemon holds per finished job
// stays small however large the design was. 64 distinct 150-op
// datapaths, each swept over cp..cp+3 until its job succeeds, may add
// less than 32 KB of live heap per job; the compiled design of one such
// source is over 100 KB.
func TestFinishedSweepsPinNoDesign(t *testing.T) {
	const designs = 64
	cfg := gen.Default()
	cfg.Ops = 150
	cfg.MuxFanIn = 1
	reqs := make([]client.SweepRequest, designs+1)
	for i := range reqs {
		src := gen.Source(int64(i+1), cfg)
		cp, err := pmsynth.CriticalPath(pmsynth.MustCompile(src))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = client.SweepRequest{Source: src, Spec: client.SweepSpec{BudgetMin: cp, BudgetMax: cp + 3}}
	}
	_, ts := newTestServer(t, server.Config{})
	sweep := func(req client.SweepRequest) {
		t.Helper()
		var created client.SweepJob
		if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
			t.Fatalf("sweep = %d (%+v), want 202", code, created)
		}
		streamEvents(t, ts.URL+"/v1/jobs/"+created.ID+"/events", nil)
		waitJobState(t, ts.URL, created.ID, client.StateSucceeded)
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// The first sweep builds what every later one reuses (connections,
	// histogram series), so it runs before the baseline.
	sweep(reqs[designs])
	before := liveHeap()
	for _, req := range reqs[:designs] {
		sweep(req)
	}
	perJob := (liveHeap() - before) / designs
	t.Logf("live heap per finished job: %d B", perJob)
	if perJob >= 32<<10 {
		t.Fatalf("each finished sweep keeps %d B of live heap, want < %d: something pins the compiled design", perJob, 32<<10)
	}
}

// TestSweepQueueFullSheds429: with the one worker occupied and the
// admission queue at capacity, the next distinct submission must be shed
// with 429 and a Retry-After hint — not buffered, not blocked.
func TestSweepQueueFullSheds429(t *testing.T) {
	var compiles atomic.Int64
	_, ts := newTestServer(t, server.Config{
		JobWorkers:     1,
		MaxPendingJobs: 1,
		RetryAfter:     7 * time.Second,
		CompileHook:    func(string) { compiles.Add(1) },
	})
	// Hog: wide one-worker sweep, runs for hundreds of milliseconds.
	hog := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 4000, Workers: 1},
	}
	var hogResp client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", hog, &hogResp); code != http.StatusAccepted {
		t.Fatalf("hog sweep = %d", code)
	}
	// Wait until the hog owns the worker so the queue slot is free.
	waitJobState(t, ts.URL, hogResp.ID, client.StateRunning)

	queued := hog
	queued.Spec.BudgetMax = 4001
	var queuedResp client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", queued, &queuedResp); code != http.StatusAccepted {
		t.Fatalf("queued sweep = %d, want 202", code)
	}

	// The over-capacity submission uses a source the server has never
	// seen: the early shed must fire before compile/enumerate, so a
	// saturated server does minimal work per rejected request.
	compiledBefore := compiles.Load()
	over := client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 3, BudgetMax: 4, Workers: 1},
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", postBody(t, over))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity sweep = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	if n := compiles.Load(); n != compiledBefore {
		t.Fatalf("shed submission compiled its source (%d -> %d compiles) — early shed must run before compile", compiledBefore, n)
	}

	// An identical resubmission of a live job still dedups — backpressure
	// applies to new work only.
	var dedup client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", hog, &dedup); code != http.StatusOK || !dedup.Deduped {
		t.Fatalf("dedup under full queue = %d (%+v), want 200 deduped", code, dedup)
	}

	// The shed is visible in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, mresp)
	if !strings.Contains(metrics, "pmsynthd_sweep_shed 1") {
		t.Fatalf("metrics missing shed counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "pmsynthd_jobs_queue_capacity 1") {
		t.Fatalf("metrics missing queue capacity:\n%s", metrics)
	}

	// Free the worker so teardown is quick.
	postJSON(t, ts.URL+"/v1/jobs/"+hogResp.ID+"/cancel", struct{}{}, nil)
	postJSON(t, ts.URL+"/v1/jobs/"+queuedResp.ID+"/cancel", struct{}{}, nil)
}

// TestSweepWorkersClamped: a client demanding an absurd worker count gets
// the server cap, not a goroutine bomb — and the clamp never changes the
// served results (Workers is excluded from the fingerprint).
func TestSweepWorkersClamped(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxSweepWorkers: 2})
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 9, Workers: 1 << 20},
	}
	var created client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep = %d", code)
	}
	if created.Workers != 2 {
		t.Fatalf("effective workers = %d, want clamped to 2", created.Workers)
	}
	waitJobState(t, ts.URL, created.ID, client.StateSucceeded)

	// The cap also governs the default path: a request that omits
	// Workers must resolve its GOMAXPROCS default under the cap, not
	// bypass it. (Distinct budget range — Workers is excluded from the
	// fingerprint, so the same range would dedup onto the job above.)
	wantDefault := 2
	if g := runtime.GOMAXPROCS(0); g < wantDefault {
		wantDefault = g
	}
	omitted := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 10},
	}
	var created2 client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", omitted, &created2); code != http.StatusAccepted {
		t.Fatalf("omitted-workers sweep = %d", code)
	}
	if created2.Workers != wantDefault {
		t.Fatalf("default-path workers = %d, want %d (cap must govern the default too)", created2.Workers, wantDefault)
	}

	// Served table is byte-identical to a direct sweep — the clamp is
	// invisible in results.
	design, err := pmsynth.Compile(gcdSrc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pmsynth.Sweep(design, pmsynth.SweepSpec{BudgetMin: 5, BudgetMax: 9})
	if err != nil {
		t.Fatal(err)
	}
	var table client.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view=table", &table); code != http.StatusOK {
		t.Fatalf("table view = %d", code)
	}
	if table.Table != direct.Table() {
		t.Fatalf("clamped sweep table differs from direct:\n%s\n---\n%s", table.Table, direct.Table())
	}
}

// TestStressMixedSubmissions hammers a live server with concurrent mixed
// synthesize and sweep traffic — some identical, some distinct — and
// requires every response to be well-formed, every sweep job to reach a
// terminal state, and the process to stay healthy. Run under -race this
// is the serving layer's concurrency smoke test.
func TestStressMixedSubmissions(t *testing.T) {
	_, ts := newTestServer(t, server.Config{JobWorkers: 4, MaxPendingJobs: 128})
	sources := []string{gcdSrc, absDiffSrc}
	const goroutines = 12
	const perG = 6

	var jobIDs sync.Map
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				src := sources[(g+i)%len(sources)]
				if (g+i)%3 == 0 {
					var created client.SweepJob
					code, err := postJSONErr(ts.URL+"/v1/sweep", client.SweepRequest{
						Source: src,
						Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 5 + (g % 3)},
					}, &created)
					if err != nil {
						t.Errorf("sweep: %v", err)
						continue
					}
					switch code {
					case http.StatusAccepted, http.StatusOK:
						jobIDs.Store(created.ID, struct{}{})
					case http.StatusTooManyRequests:
						// Legitimate shed under burst.
					default:
						t.Errorf("sweep status %d", code)
					}
				} else {
					budget := 3
					if src == gcdSrc {
						budget = 5 + (i % 2)
					}
					var res client.SynthesizeResult
					code, err := postJSONErr(ts.URL+"/v1/synthesize", client.SynthesizeRequest{
						Source:  src,
						Options: client.Options{Budget: budget},
					}, &res)
					if err != nil {
						t.Errorf("synthesize: %v", err)
					} else if code != http.StatusOK {
						t.Errorf("synthesize status %d", code)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	jobIDs.Range(func(k, _ interface{}) bool {
		id := k.(string)
		deadline := time.Now().Add(30 * time.Second)
		for {
			var info client.JobInfo
			if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &info); code != http.StatusOK {
				t.Fatalf("job %s status = %d", id, code)
			}
			if info.State.Terminal() {
				if info.State != client.StateSucceeded {
					t.Fatalf("job %s ended %s (%s)", id, info.State, info.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, info.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	})

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after stress = %d %q", code, health.Status)
	}
}

// postBody marshals a request body for raw http.Post use.
func postBody(t *testing.T, v interface{}) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSynthesizeRunsThroughAdmission: a synthesize request is a job of
// the admission pipeline, so distinct concurrent requests never run more
// pipelines at once than the worker pool allows, and each still answers
// the library's row.
func TestSynthesizeRunsThroughAdmission(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	stop := make(chan struct{})
	var running, overlaps atomic.Int64
	_, ts := newTestServer(t, server.Config{
		JobWorkers: 1,
		SweepHook: func(string) {
			if running.Add(1) > 1 {
				overlaps.Add(1)
			}
			defer running.Add(-1)
			select {
			case entered <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case <-release:
			case <-stop:
			}
		},
	})
	// Unpark any held hook before the server tears down.
	t.Cleanup(func() { close(stop) })

	budgets := []int{3, 4, 5, 6}
	responses := make([]client.SynthesizeResult, len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		go func(i, b int) {
			defer wg.Done()
			code, err := postJSONErr(ts.URL+"/v1/synthesize", client.SynthesizeRequest{
				Source: absDiffSrc, Options: client.Options{Budget: b},
			}, &responses[i])
			if err != nil || code != http.StatusOK {
				t.Errorf("budget %d: status %d, %v", b, code, err)
			}
		}(i, b)
	}
	answered := make(chan struct{})
	go func() { wg.Wait(); close(answered) }()
	for i := range budgets {
		select {
		case <-entered:
		case <-answered:
			t.Fatalf("every request was answered after %d pipeline runs through admission, want %d", i, len(budgets))
		}
		release <- struct{}{}
	}
	<-answered
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d pipelines started while another ran on the one worker", n)
	}
	design := pmsynth.MustCompile(absDiffSrc)
	for i, b := range budgets {
		syn, err := pmsynth.Synthesize(design, pmsynth.Options{Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		if responses[i].Row != client.Row(syn.Row()) {
			t.Errorf("budget %d: served row %+v, library row %+v", b, responses[i].Row, syn.Row())
		}
	}
}

// shedGate is a client transport that reports when the first attempt is
// shed with 429 and holds every later attempt until drained closes, so
// the SDK's retry lands on a queue the test has seen drain.
type shedGate struct {
	attempts atomic.Int64
	shed     chan struct{}
	drained  chan struct{}
}

func (g *shedGate) RoundTrip(req *http.Request) (*http.Response, error) {
	n := g.attempts.Add(1)
	if n > 1 {
		<-g.drained
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if n == 1 && err == nil && resp.StatusCode == http.StatusTooManyRequests {
		close(g.shed)
	}
	return resp, err
}

// TestSynthesizeShedWhenQueueFull: with the one worker held and the
// admission queue full, a synthesize is shed with 429 + Retry-After like
// any submission, and the SDK's retry path carries it through once the
// queue drains.
func TestSynthesizeShedWhenQueueFull(t *testing.T) {
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseHook := func() { releaseOnce.Do(func() { close(release) }) }
	_, ts := newTestServer(t, server.Config{
		JobWorkers:     1,
		MaxPendingJobs: 1,
		RetryAfter:     7 * time.Second,
		SweepHook: func(string) {
			select {
			case held <- struct{}{}:
			default:
			}
			<-release
		},
	})
	t.Cleanup(releaseHook)

	var hog, queued client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", client.SweepRequest{
		Source: gcdSrc, Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 6},
	}, &hog); code != http.StatusAccepted {
		t.Fatalf("hog sweep = %d, want 202", code)
	}
	<-held // the worker is parked in the hog's hook
	if code := postJSON(t, ts.URL+"/v1/sweep", client.SweepRequest{
		Source: gcdSrc, Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 7},
	}, &queued); code != http.StatusAccepted {
		t.Fatalf("queued sweep = %d, want 202", code)
	}

	req := client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}}
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", postBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("synthesize with the queue full = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}

	gate := &shedGate{shed: make(chan struct{}), drained: make(chan struct{})}
	cl := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: gate}),
		client.WithRetries(3, time.Millisecond))
	type result struct {
		res *client.SynthesizeResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := cl.Synthesize(context.Background(), client.SynthesizeRequest{
			Source: absDiffSrc, Options: client.Options{Budget: 3},
		})
		done <- result{res, err}
	}()
	select {
	case <-gate.shed:
	case r := <-done:
		t.Fatalf("SDK synthesize was never shed: %+v, %v", r.res, r.err)
	}
	releaseHook()
	// The queued sweep's stream ends when it does; the queue is empty.
	streamEvents(t, ts.URL+"/v1/jobs/"+queued.ID+"/events", nil)
	close(gate.drained)
	r := <-done
	if r.err != nil {
		t.Fatalf("SDK synthesize after the queue drained: %v", r.err)
	}
	syn, err := pmsynth.Synthesize(pmsynth.MustCompile(absDiffSrc), pmsynth.Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.res.Row != client.Row(syn.Row()) || r.res.Cached {
		t.Fatalf("retried synthesize = %+v, want the library row %+v, computed", r.res, syn.Row())
	}
}
