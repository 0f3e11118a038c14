package server_test

// Warm-start proof: the acceptance test of the persistence tier. A sweep
// computed by one Server instance is served by a second instance created
// over the same store directory — byte-identical result views, the job
// already succeeded at submission time, the store-hit metric incremented,
// and the compile counter untouched. The same holds for synthesize
// results. Nothing is handed between the instances except the directory.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// newStoreServer builds a server over dir with a compile counter, plus an
// httptest listener. Callers close both through the returned shutdown
// func (not t.Cleanup: the warm-start test restarts deliberately).
func newStoreServer(t *testing.T, dir string, compiles *atomic.Int64) (*server.Server, *httptest.Server, func()) {
	t.Helper()
	s, err := server.New(server.Config{
		JobWorkers:  2,
		StoreDir:    dir,
		CompileHook: func(string) { compiles.Add(1) },
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		s.Close()
	}
}

// fetchRaw GETs a URL and returns the raw body bytes as a string.
func fetchRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return readAll(t, resp)
}

func TestWarmStartSweep(t *testing.T) {
	dir := t.TempDir()
	req := client.SweepRequest{
		Source: absDiffSrc,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 4, Orders: []string{"outputs-first", "inputs-first"}},
	}

	// ---- Cold run: first process lifetime.
	var compiles1 atomic.Int64
	_, ts1, shutdown1 := newStoreServer(t, dir, &compiles1)
	var created client.SweepJob
	if code := postJSON(t, ts1.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("cold sweep = %d, want 202", code)
	}
	waitJobState(t, ts1.URL, created.ID, client.StateSucceeded)
	coldBest := fetchRaw(t, ts1.URL+"/v1/jobs/"+created.ID+"/result?view=best")
	coldPareto := fetchRaw(t, ts1.URL+"/v1/jobs/"+created.ID+"/result?view=pareto")
	coldTable := fetchRaw(t, ts1.URL+"/v1/jobs/"+created.ID+"/result?view=table")
	if compiles1.Load() != 1 {
		t.Fatalf("cold run compiled %d times, want 1", compiles1.Load())
	}
	shutdown1() // the process "dies"; only the store directory survives

	// ---- Warm run: a fresh Server over the same directory.
	var compiles2 atomic.Int64
	_, ts2, shutdown2 := newStoreServer(t, dir, &compiles2)
	defer shutdown2()
	var warm client.SweepJob
	code := postJSON(t, ts2.URL+"/v1/sweep", req, &warm)
	if code != http.StatusOK {
		t.Fatalf("warm sweep = %d, want 200", code)
	}
	if !warm.Cached {
		t.Fatalf("warm response not marked cached: %+v", warm)
	}
	if warm.State != client.StateSucceeded {
		t.Fatalf("warm job state = %s, want succeeded immediately", warm.State)
	}
	if warm.Total != created.Total {
		t.Fatalf("warm total = %d, want %d", warm.Total, created.Total)
	}
	if warm.ID == created.ID {
		t.Fatal("warm job reused the dead process's job id")
	}

	// Byte-identical result views, zero recompiles.
	base := ts2.URL + "/v1/jobs/" + warm.ID + "/result"
	strip := func(s, id string) string { return strings.ReplaceAll(s, id, "JOB") }
	for _, view := range []struct{ name, cold string }{
		{"best", coldBest}, {"pareto", coldPareto}, {"table", coldTable},
	} {
		warmBody := fetchRaw(t, base+"?view="+view.name)
		if strip(warmBody, warm.ID) != strip(view.cold, created.ID) {
			t.Errorf("view %s diverged after restart:\ncold: %s\nwarm: %s",
				view.name, view.cold, warmBody)
		}
	}
	if n := compiles2.Load(); n != 0 {
		t.Fatalf("warm run compiled %d times, want 0", n)
	}

	// The hit is visible in the metrics.
	metrics := fetchRaw(t, ts2.URL+"/metrics")
	for _, want := range []string{
		"pmsynthd_store_enabled 1",
		"pmsynthd_store_hits 1",
		"pmsynthd_sweep_warm_hits 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The restored job behaves like any other: it lists, snapshots, and
	// streams a complete (created + succeeded) event log.
	var info client.JobInfo
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+warm.ID, &info); code != http.StatusOK {
		t.Fatalf("warm job status = %d", code)
	}
	if info.Done != info.Total || info.Total != warm.Total {
		t.Fatalf("warm job progress = %d/%d", info.Done, info.Total)
	}
	events := fetchRaw(t, ts2.URL+"/v1/jobs/"+warm.ID+"/events")
	if !strings.Contains(events, `"type":"succeeded"`) {
		t.Fatalf("warm job event stream lacks terminal event:\n%s", events)
	}

	// A second identical submission dedupes onto the restored job rather
	// than re-reading the store.
	var dedup client.SweepJob
	if code := postJSON(t, ts2.URL+"/v1/sweep", req, &dedup); code != http.StatusOK || !dedup.Deduped || dedup.ID != warm.ID {
		t.Fatalf("resubmit = %d (%+v), want 200 deduped onto %s", code, dedup, warm.ID)
	}
}

func TestWarmStartSynthesize(t *testing.T) {
	dir := t.TempDir()
	req := client.SynthesizeRequest{
		Source:  absDiffSrc,
		Options: client.Options{Budget: 3},
		Emit:    []string{"vhdl", "verilog"},
	}

	var compiles1 atomic.Int64
	_, ts1, shutdown1 := newStoreServer(t, dir, &compiles1)
	var cold client.SynthesizeResult
	if code := postJSON(t, ts1.URL+"/v1/synthesize", req, &cold); code != http.StatusOK {
		t.Fatalf("cold synthesize = %d", code)
	}
	if cold.Cached {
		t.Fatal("cold synthesize claims cached")
	}
	shutdown1()

	var compiles2 atomic.Int64
	_, ts2, shutdown2 := newStoreServer(t, dir, &compiles2)
	defer shutdown2()
	var warm client.SynthesizeResult
	if code := postJSON(t, ts2.URL+"/v1/synthesize", req, &warm); code != http.StatusOK {
		t.Fatalf("warm synthesize = %d", code)
	}
	if !warm.Cached {
		t.Fatal("warm synthesize not served from the store")
	}
	if compiles2.Load() != 0 {
		t.Fatalf("warm synthesize compiled %d times", compiles2.Load())
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Row != cold.Row ||
		warm.VHDL != cold.VHDL || warm.Verilog != cold.Verilog {
		t.Fatal("warm synthesize diverged from the cold run")
	}

	// Different emit sets must not alias: the warm store entry carries
	// its emit qualifier in the key.
	bare := client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 3}}
	var bareResp client.SynthesizeResult
	if code := postJSON(t, ts2.URL+"/v1/synthesize", bare, &bareResp); code != http.StatusOK {
		t.Fatalf("bare synthesize = %d", code)
	}
	if bareResp.VHDL != "" || bareResp.Verilog != "" {
		t.Fatal("emit-free request served RTL artifacts from an aliased store entry")
	}
}

// TestWarmStartSurvivesJobGC: the disk store answers a fingerprint whose
// job has been TTL-collected within one process lifetime — persistence is
// not only about restarts.
func TestWarmStartSurvivesJobGC(t *testing.T) {
	dir := t.TempDir()
	var compiles atomic.Int64
	s, err := server.New(server.Config{
		JobWorkers:  1,
		JobTTL:      time.Millisecond,
		StoreDir:    dir,
		CompileHook: func(string) { compiles.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	req := client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 3}}
	var created client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep = %d", code)
	}
	waitJobState(t, ts.URL, created.ID, client.StateSucceeded)

	// Wait for the TTL janitor to collect the finished job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID, nil); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never TTL-collected")
		}
		time.Sleep(20 * time.Millisecond)
	}

	compiledBefore := compiles.Load()
	var warm client.SweepJob
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &warm); code != http.StatusOK || !warm.Cached {
		t.Fatalf("post-GC resubmit = %d (%+v), want 200 cached", code, warm)
	}
	if compiles.Load() != compiledBefore {
		t.Fatal("post-GC resubmit recompiled despite the store entry")
	}
}

// TestStoreCorruptionDegradesToRecompute: a corrupted store entry must
// silently fall back to the cold path and heal the entry.
func TestStoreCorruptionDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	req := client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 3}}

	var compiles1 atomic.Int64
	_, ts1, shutdown1 := newStoreServer(t, dir, &compiles1)
	var created client.SweepJob
	if code := postJSON(t, ts1.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
		t.Fatalf("sweep = %d", code)
	}
	waitJobState(t, ts1.URL, created.ID, client.StateSucceeded)
	shutdown1()

	// Overwrite every store segment with garbage.
	corruptStoreFiles(t, dir)

	var compiles2 atomic.Int64
	_, ts2, shutdown2 := newStoreServer(t, dir, &compiles2)
	defer shutdown2()
	var again client.SweepJob
	if code := postJSON(t, ts2.URL+"/v1/sweep", req, &again); code != http.StatusAccepted {
		t.Fatalf("post-corruption sweep = %d, want 202 (recompute)", code)
	}
	if again.Cached {
		t.Fatal("corrupted entry served as a warm hit")
	}
	waitJobState(t, ts2.URL, again.ID, client.StateSucceeded)
	if compiles2.Load() != 1 {
		t.Fatalf("post-corruption run compiled %d times, want 1", compiles2.Load())
	}
}

// corruptStoreFiles truncates every store segment under dir to a garbage
// prefix, so no record in it reads back.
func corruptStoreFiles(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".pmseg") {
			return err
		}
		n++
		return os.WriteFile(path, []byte("garbage"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no store segments found to corrupt")
	}
}

// TestWarmRestoresAreOrdinaryJobs: a store-restored sweep job is an
// ordinary fingerprint-index entry with no bound of its own, so a
// restarted daemon answers every one of the 257 sweeps its store holds
// from disk, without compiling.
func TestWarmRestoresAreOrdinaryJobs(t *testing.T) {
	const sweeps = 257
	dir := t.TempDir()
	reqs := make([]client.SweepRequest, sweeps)
	for i := range reqs {
		reqs[i] = client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{Budgets: []int{2 + i}}}
	}

	s1, err := server.New(server.Config{JobWorkers: 2, MaxPendingJobs: sweeps, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ids := make([]string, sweeps)
	for i, req := range reqs {
		var created client.SweepJob
		if code := postJSON(t, ts1.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
			t.Fatalf("cold sweep %d = %d, want 202", i, code)
		}
		ids[i] = created.ID
	}
	for _, id := range ids {
		waitJobState(t, ts1.URL, id, client.StateSucceeded)
	}
	ts1.Close()
	s1.Close()

	var compiles atomic.Int64
	_, ts2, shutdown2 := newStoreServer(t, dir, &compiles)
	defer shutdown2()
	for i, req := range reqs {
		var warm client.SweepJob
		if code := postJSON(t, ts2.URL+"/v1/sweep", req, &warm); code != http.StatusOK || !warm.Cached {
			t.Fatalf("warm sweep %d = %d (%+v), want 200 cached", i, code, warm)
		}
	}
	if n := compiles.Load(); n != 0 {
		t.Fatalf("warm replay compiled %d times, want 0", n)
	}
}

// TestSweepViewsAreAFunctionOfTheRequest: a sweep's result views depend
// on the request alone. Two daemons that share nothing answer the same
// bytes, job id aside, so no measurement (a clock reading) ever leaks
// into a result.
func TestSweepViewsAreAFunctionOfTheRequest(t *testing.T) {
	req := client.SweepRequest{
		Source: gcdSrc,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 8, Orders: []string{"outputs-first", "inputs-first"}},
	}
	views := []string{"best", "pareto", "table"}
	run := func() []string {
		_, ts := newTestServer(t, server.Config{JobWorkers: 1})
		var created client.SweepJob
		if code := postJSON(t, ts.URL+"/v1/sweep", req, &created); code != http.StatusAccepted {
			t.Fatalf("sweep = %d, want 202", code)
		}
		waitJobState(t, ts.URL, created.ID, client.StateSucceeded)
		bodies := make([]string, len(views))
		for i, view := range views {
			body := fetchRaw(t, ts.URL+"/v1/jobs/"+created.ID+"/result?view="+view)
			bodies[i] = strings.ReplaceAll(body, created.ID, "JOB")
		}
		return bodies
	}
	a, b := run(), run()
	for i, view := range views {
		if a[i] != b[i] {
			t.Errorf("view %s differs between daemons:\n%s\n%s", view, a[i], b[i])
		}
	}
}
