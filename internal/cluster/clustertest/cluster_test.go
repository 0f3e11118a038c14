package clustertest_test

// End-to-end cluster tests: real daemons over real sockets, driven
// through the client SDK. The invariants pinned here are the cluster's
// reasons to exist — submissions land on their fingerprint's owner, a
// killed owner never loses a sweep, and two nodes racing one
// fingerprint past a dead or partitioned owner both reach the next
// ranked node and execute it once.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pmsynth "repro"
	"repro/client"
	"repro/internal/cdfg"
	"repro/internal/cluster/clustertest"
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

// sweepSpec and wireSpec are the same sweep in library and wire form;
// keeping them side by side is what lets the tests compare a cluster's
// table against a direct in-process run byte for byte.
func sweepSpec() pmsynth.SweepSpec { return pmsynth.SweepSpec{BudgetMin: 2, BudgetMax: 5} }
func wireSpec() client.SweepSpec   { return client.SweepSpec{BudgetMin: 2, BudgetMax: 5} }

// referenceTable runs the sweep directly in-process — no daemon, no
// cluster — and returns its table rendering.
func referenceTable(t *testing.T) string {
	t.Helper()
	sr, err := pmsynth.Sweep(pmsynth.MustCompile(absDiffSrc), sweepSpec())
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return sr.Table()
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// fetchTable reads a job's table view through the given node.
func fetchTable(ctx context.Context, t *testing.T, url, jobID string) string {
	t.Helper()
	cl := client.New(url, client.WithRetries(4, 100*time.Millisecond))
	res, err := cl.JobResult(ctx, jobID, client.ResultQuery{View: "table"})
	if err != nil {
		t.Fatalf("result via %s: %v", url, err)
	}
	return res.Table
}

// TestClusterRoutesSubmissionsToOwner pins the happy-path routing
// contract: a submission to a non-owner node is proxied to the
// fingerprint's owner, the resulting job id resolves transparently at
// every node, and the pmsynthd_cluster_* metrics record the hops.
func TestClusterRoutesSubmissionsToOwner(t *testing.T) {
	ctx := testCtx(t)
	c := clustertest.New(t, 3, clustertest.Options{})
	fp := pmsynth.SweepFingerprint(absDiffSrc, sweepSpec())
	owner := c.OwnerIndex(fp)
	submit, third := (owner+1)%3, (owner+2)%3

	cl := client.New(c.Nodes[submit].URL, client.WithRetries(4, 100*time.Millisecond))
	job, info, err := cl.SweepAndWait(ctx, client.SweepRequest{Source: absDiffSrc, Spec: wireSpec()}, nil)
	if err != nil {
		t.Fatalf("SweepAndWait: %v", err)
	}
	if info.State != client.StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", info.State, info.Err)
	}
	if got := c.IndexByID(info.Node); got != owner {
		t.Fatalf("job ran on node %d (%s), want owner %d", got, info.Node, owner)
	}

	// The routable id resolves at a node that neither submitted nor ran
	// the job, and the proxied table matches the direct library run.
	want := referenceTable(t)
	if got := fetchTable(ctx, t, c.Nodes[third].URL, job.ID); got != want {
		t.Fatalf("table via third node differs from direct run:\n got: %q\nwant: %q", got, want)
	}

	metrics := func(i int) map[string]int64 {
		m, err := client.New(c.Nodes[i].URL).Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics node %d: %v", i, err)
		}
		return m
	}
	ms, mo, mt := metrics(submit), metrics(owner), metrics(third)
	if ms["pmsynthd_cluster_nodes"] != 3 || ms["pmsynthd_cluster_enabled"] != 1 {
		t.Fatalf("cluster gauges = %d/%d, want 3/1",
			ms["pmsynthd_cluster_nodes"], ms["pmsynthd_cluster_enabled"])
	}
	if ms["pmsynthd_cluster_proxied_submits"] < 1 {
		t.Fatalf("submit node proxied_submits = %d, want >= 1", ms["pmsynthd_cluster_proxied_submits"])
	}
	if mo["pmsynthd_cluster_forwarded"] < 1 {
		t.Fatalf("owner forwarded = %d, want >= 1", mo["pmsynthd_cluster_forwarded"])
	}
	if mt["pmsynthd_cluster_proxied_jobs"] < 1 {
		t.Fatalf("third node proxied_jobs = %d, want >= 1", mt["pmsynthd_cluster_proxied_jobs"])
	}
}

// TestKillOwnerMidSweepFailsOver is the headline fault-injection test:
// a 3-node cluster accepts a sweep, the owner node is crash-stopped
// while the job is stalled mid-execution, and the client SDK fails over
// until a survivor completes the sweep — with a table byte-identical to
// a single-node run.
func TestKillOwnerMidSweepFailsOver(t *testing.T) {
	ctx := testCtx(t)
	started := make(chan int, 1)
	release := make(chan struct{})
	var stalled atomic.Bool
	c := clustertest.New(t, 3, clustertest.Options{
		Configure: func(i int, cfg *server.Config) {
			cfg.JobWorkers = 1
			cfg.SweepHook = func(string) {
				// Stall only the first execution cluster-wide: the one
				// about to die with its node. The survivor's replacement
				// run must proceed normally.
				if stalled.CompareAndSwap(false, true) {
					started <- i
					<-release
				}
			}
		},
	})
	defer close(release)

	cl := client.NewMulti(c.URLs(), client.WithRetries(8, 100*time.Millisecond))
	type outcome struct {
		job  *client.SweepJob
		info *client.JobInfo
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		job, info, err := cl.SweepAndWait(ctx, client.SweepRequest{Source: absDiffSrc, Spec: wireSpec()}, nil)
		done <- outcome{job, info, err}
	}()

	owner := <-started
	fp := pmsynth.SweepFingerprint(absDiffSrc, sweepSpec())
	if want := c.OwnerIndex(fp); owner != want {
		t.Fatalf("sweep started on node %d, want owner %d", owner, want)
	}
	c.KillNode(owner)

	r := <-done
	if r.err != nil {
		t.Fatalf("SweepAndWait after owner kill: %v", r.err)
	}
	if r.info.State != client.StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", r.info.State, r.info.Err)
	}
	survivor := c.IndexByID(r.info.Node)
	if survivor < 0 || survivor == owner {
		t.Fatalf("job completed on node %d (%s), want a survivor (owner was %d)",
			survivor, r.info.Node, owner)
	}
	want := referenceTable(t)
	if got := fetchTable(ctx, t, c.Nodes[survivor].URL, r.job.ID); got != want {
		t.Fatalf("failover table differs from single-node run:\n got: %q\nwant: %q", got, want)
	}
}

// TestCrossNodeDedupSingleExecution submits one fingerprint to two
// nodes concurrently — with the routing owner already dead, so neither
// can just defer to it — and asserts the ranked failover collapses the
// race to exactly one execution: both submissions walk past the dead
// owner to the same next-ranked node, whose dedup index joins them —
// one execution cluster-wide, one job id in both responses, identical
// tables from both nodes.
func TestCrossNodeDedupSingleExecution(t *testing.T) {
	ctx := testCtx(t)
	fp := pmsynth.SweepFingerprint(absDiffSrc, sweepSpec())
	var executions atomic.Int64
	release := make(chan struct{})
	var stalled atomic.Bool
	c := clustertest.New(t, 3, clustertest.Options{
		Configure: func(i int, cfg *server.Config) {
			cfg.JobWorkers = 1
			// Hold the winning execution until both submissions are in,
			// so the second deterministically joins a live job rather
			// than racing its completion.
			cfg.SweepHook = func(got string) {
				if got == fp {
					executions.Add(1)
				}
				if stalled.CompareAndSwap(false, true) {
					<-release
				}
			}
		},
	})
	owner := c.OwnerIndex(fp)
	c.KillNode(owner)
	a, b := (owner+1)%3, (owner+2)%3

	req := client.SweepRequest{Source: absDiffSrc, Spec: wireSpec()}
	var jobs [2]*client.SweepJob
	var errs [2]error
	var wg sync.WaitGroup
	for k, idx := range []int{a, b} {
		wg.Add(1)
		go func(k, idx int) {
			defer wg.Done()
			cl := client.New(c.Nodes[idx].URL, client.WithRetries(4, 100*time.Millisecond))
			jobs[k], errs[k] = cl.Sweep(ctx, req)
		}(k, idx)
	}
	wg.Wait()
	close(release)
	for k, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	if jobs[0].ID != jobs[1].ID {
		t.Fatalf("racing submissions made two jobs: %q vs %q", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].Deduped == jobs[1].Deduped {
		t.Fatalf("want exactly one deduped response, got %v and %v", jobs[0].Deduped, jobs[1].Deduped)
	}

	cl := client.New(c.Nodes[a].URL, client.WithRetries(4, 100*time.Millisecond))
	info, err := cl.WaitJob(ctx, jobs[0].ID, nil)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if info.State != client.StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", info.State, info.Err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("cluster executed the sweep %d times, want exactly 1", got)
	}
	want := referenceTable(t)
	for _, idx := range []int{a, b} {
		if got := fetchTable(ctx, t, c.Nodes[idx].URL, jobs[0].ID); got != want {
			t.Fatalf("node %d table differs from direct run:\n got: %q\nwant: %q", idx, got, want)
		}
	}
}

// TestPartitionedOwnerFailsOverToNextRanked cuts the fingerprint's
// owner off from inbound traffic — alive, every connection dropped —
// and races the sweep at the other two nodes. Both must skip the
// unreachable owner and converge on the second-ranked node: one job
// there, one execution cluster-wide, exactly one deduped response, and
// tables byte-identical to a direct run. Healed, the owner answers the
// same fingerprint from the shared store without compiling.
func TestPartitionedOwnerFailsOverToNextRanked(t *testing.T) {
	ctx := testCtx(t)
	fp := pmsynth.SweepFingerprint(absDiffSrc, sweepSpec())
	var compiles, executions atomic.Int64
	c := clustertest.New(t, 3, clustertest.Options{
		Configure: func(i int, cfg *server.Config) {
			cfg.CompileHook = func(source string) {
				if source == absDiffSrc {
					compiles.Add(1)
				}
			}
			cfg.SweepHook = func(got string) {
				if got == fp {
					executions.Add(1)
				}
			}
		},
	})
	ranked := c.Ranked(fp)
	c.PartitionNode(ranked[0])

	req := client.SweepRequest{Source: absDiffSrc, Spec: wireSpec()}
	var jobs [2]*client.SweepJob
	var errs [2]error
	var wg sync.WaitGroup
	for k, idx := range ranked[1:] {
		wg.Add(1)
		go func(k, idx int) {
			defer wg.Done()
			cl := client.New(c.Nodes[idx].URL, client.WithRetries(4, 100*time.Millisecond))
			jobs[k], errs[k] = cl.Sweep(ctx, req)
		}(k, idx)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	if jobs[0].ID != jobs[1].ID {
		t.Fatalf("racing submissions made two jobs: %q vs %q", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].Deduped == jobs[1].Deduped {
		t.Fatalf("want exactly one deduped response, got %v and %v", jobs[0].Deduped, jobs[1].Deduped)
	}

	cl := client.New(c.Nodes[ranked[2]].URL, client.WithRetries(4, 100*time.Millisecond))
	info, err := cl.WaitJob(ctx, jobs[0].ID, nil)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if info.State != client.StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", info.State, info.Err)
	}
	if got := c.IndexByID(info.Node); got != ranked[1] {
		t.Fatalf("job ran on node %d (%s), want second-ranked node %d", got, info.Node, ranked[1])
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("cluster executed the sweep %d times, want exactly 1", got)
	}
	want := referenceTable(t)
	for _, idx := range ranked[1:] {
		if got := fetchTable(ctx, t, c.Nodes[idx].URL, jobs[0].ID); got != want {
			t.Fatalf("node %d table differs from direct run:\n got: %q\nwant: %q", idx, got, want)
		}
	}

	c.HealNode(ranked[0])
	before := compiles.Load()
	warm, err := client.New(c.Nodes[ranked[0]].URL).Sweep(ctx, req)
	if err != nil {
		t.Fatalf("submit to healed owner: %v", err)
	}
	if after := compiles.Load(); !warm.Cached || after != before || executions.Load() != 1 {
		t.Fatalf("healed owner: cached = %v, compiles %d -> %d, %d executions; want a store hit, no compile and 1 execution",
			warm.Cached, before, after, executions.Load())
	}
}

// TestSynthesizeRoutesToOwner: a synthesize is routed like the one-point
// sweep it is. Posted to a node that does not own its fingerprint, it
// compiles only on the owner and answers the library's row; with the
// owner killed, the next-ranked node answers it.
func TestSynthesizeRoutesToOwner(t *testing.T) {
	ctx := testCtx(t)
	var compiles [3]atomic.Int64
	c := clustertest.New(t, 3, clustertest.Options{
		Configure: func(i int, cfg *server.Config) {
			cfg.CompileHook = func(string) { compiles[i].Add(1) }
		},
	})
	opt := pmsynth.Options{Budget: 3}
	fp := pmsynth.SweepFingerprint(absDiffSrc, pmsynth.SweepSpec{
		Budgets: []int{opt.Budget}, IIs: []int{opt.II}, Orders: []pmsynth.Order{opt.Order},
		Resources: []map[cdfg.Class]int{opt.Resources},
	})
	ranked := c.Ranked(fp)
	owner, next, submit := ranked[0], ranked[1], ranked[2]
	syn, err := pmsynth.Synthesize(pmsynth.MustCompile(absDiffSrc), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := client.Row(syn.Row())

	cl := client.New(c.Nodes[submit].URL, client.WithRetries(4, 100*time.Millisecond))
	req := client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: opt.Budget}}
	res, err := cl.Synthesize(ctx, req)
	if err != nil {
		t.Fatalf("synthesize via node %d: %v", submit, err)
	}
	if res.Row != want {
		t.Fatalf("row = %+v, want the library's %+v", res.Row, want)
	}
	for i := range compiles {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if n := compiles[i].Load(); n != want {
			t.Fatalf("node %d compiled %d times, want %d (owner: node %d)", i, n, want, owner)
		}
	}

	c.KillNode(owner)
	res, err = cl.Synthesize(ctx, req)
	if err != nil {
		t.Fatalf("synthesize via node %d after killing the owner: %v", submit, err)
	}
	if res.Row != want {
		t.Fatalf("row after the kill = %+v, want the library's %+v", res.Row, want)
	}
	metrics := func(i int) map[string]int64 {
		m, err := client.New(c.Nodes[i].URL).Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics node %d: %v", i, err)
		}
		return m
	}
	mn, ms := metrics(next), metrics(submit)
	if mn["pmsynthd_cache_misses"] != 1 || ms["pmsynthd_cache_misses"] != 0 {
		t.Fatalf("admissions: next-ranked node %d = %d, submitting node %d = %d; want 1 and 0",
			next, mn["pmsynthd_cache_misses"], submit, ms["pmsynthd_cache_misses"])
	}
	if ms["pmsynthd_cluster_fallbacks"] < 1 {
		t.Fatalf("submitting node fallbacks = %d, want >= 1", ms["pmsynthd_cluster_fallbacks"])
	}
}
