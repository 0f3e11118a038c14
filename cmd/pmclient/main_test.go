package main

// Command-level tests: every pmclient subcommand runs against a real
// in-process pmsynthd through the SDK, exactly as the shipped binary
// would against a daemon.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/client"
	"repro/internal/server"
)

const testSrc = `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

// incSrc is a second design, so a two-file batch makes two jobs.
const incSrc = `
func inc(a: num<8>) out: num<8> =
begin
    out = a + 1;
end
`

// newEnv boots an in-process daemon, a client against it, and a source
// file on disk for the -file flags.
func newEnv(t *testing.T) (*client.Client, string) {
	t.Helper()
	s, err := server.New(server.Config{JobWorkers: 2})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	file := filepath.Join(t.TempDir(), "absdiff.sil")
	if err := os.WriteFile(file, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return client.New(ts.URL), file
}

func TestRunHealthAndMetrics(t *testing.T) {
	c, _ := newEnv(t)
	ctx := context.Background()
	if err := runHealth(ctx, c); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := runMetrics(ctx, c); err != nil {
		t.Fatalf("metrics: %v", err)
	}
}

func TestRunSynth(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	if err := runSynth(ctx, c, []string{"-file", file, "-budget", "3", "-emit", "vhdl"}); err != nil {
		t.Fatalf("synth: %v", err)
	}
	if err := runSynth(ctx, c, []string{"-budget", "3"}); err == nil {
		t.Fatal("synth without -file succeeded")
	}
}

func TestRunSweepWatchAndViews(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	// Watched sweep, table view (exercises SweepAndWait + JobResult).
	if err := runSweep(ctx, c, []string{"-file", file, "-budgets", "2:5", "-view", "table"}); err != nil {
		t.Fatalf("sweep -watch: %v", err)
	}
	// Fire-and-forget submission (dedupes onto the finished job).
	if err := runSweep(ctx, c, []string{"-file", file, "-budgets", "2:5", "-watch=false"}); err != nil {
		t.Fatalf("sweep -watch=false: %v", err)
	}
	// Axis parsing errors surface before any request.
	if err := runSweep(ctx, c, []string{"-file", file, "-budgets", "nope"}); err == nil {
		t.Fatal("bad -budgets accepted")
	}
	if err := runSweep(ctx, c, []string{"-file", file, "-iis", "x"}); err == nil {
		t.Fatal("bad -iis accepted")
	}
}

func TestRunSweepFullAxes(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	err := runSweep(ctx, c, []string{
		"-file", file, "-budgets", "2:3",
		"-orders", "outputs-first,inputs-first",
		"-iis", "0", "-workers", "2",
		"-view", "pareto",
	})
	if err != nil {
		t.Fatalf("sweep full axes: %v", err)
	}
}

// TestRunBatchAndStatus: batch over two files submits one sweep per
// file and, under -wait, returns only once both jobs are terminal.
func TestRunBatchAndStatus(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	inc := filepath.Join(t.TempDir(), "inc.sil")
	if err := os.WriteFile(inc, []byte(incSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBatch(ctx, c, []string{"-files", file + "," + inc, "-budgets", "2:4", "-wait"}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("%d jobs after a two-file batch, want 2: %+v", len(jobs), jobs)
	}
	for _, j := range jobs {
		if !j.State.Terminal() {
			t.Fatalf("job %s (%s) is %s after batch -wait returned", j.ID, j.Name, j.State)
		}
	}
	// Each file is submitted once, then once more by SweepAndWait, which
	// joins the live job instead of starting a second one.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["pmsynthd_sweep_requests"] != 4 || m["pmsynthd_cache_hits"] != 2 {
		t.Fatalf("sweep requests = %d, joins = %d; want 4 and 2",
			m["pmsynthd_sweep_requests"], m["pmsynthd_cache_hits"])
	}
	if err := runBatch(ctx, c, []string{"-budgets", "2:4"}); err == nil {
		t.Fatal("batch without -files succeeded")
	}
}

func TestRunJobCommands(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.SweepAndWait(ctx, client.SweepRequest{
		Source: string(src),
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 4},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := runJobs(ctx, c); err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if err := runJobCmd(ctx, c, "job", []string{"-id", info.ID}); err != nil {
		t.Fatalf("job: %v", err)
	}
	if err := runJobCmd(ctx, c, "events", []string{"-id", info.ID}); err != nil {
		t.Fatalf("events: %v", err)
	}
	if err := runJobCmd(ctx, c, "result", []string{"-id", info.ID, "-view", "table"}); err != nil {
		t.Fatalf("result: %v", err)
	}
	if err := runJobCmd(ctx, c, "result", []string{"-id", info.ID, "-view", "best", "-objective", "area"}); err != nil {
		t.Fatalf("result best: %v", err)
	}
	// Cancel refuses a finished job — the CLI surfaces the API error.
	if err := runJobCmd(ctx, c, "cancel", []string{"-id", info.ID}); err == nil {
		t.Fatal("cancel of finished job succeeded")
	}
	if err := runJobCmd(ctx, c, "job", []string{}); err == nil {
		t.Fatal("job without -id succeeded")
	}
}

func TestRunCancelRunningJob(t *testing.T) {
	c, file := newEnv(t)
	ctx := context.Background()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// A wide one-worker sweep stays alive long enough to cancel.
	job, err := c.Sweep(ctx, client.SweepRequest{
		Source: string(src),
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 2000, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runJobCmd(ctx, c, "cancel", []string{"-id", job.ID}); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	info, err := c.WaitJob(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != client.StateCanceled && info.State != client.StateSucceeded {
		t.Fatalf("state after cancel = %s", info.State)
	}
}
