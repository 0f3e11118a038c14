package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
)

// newTestManager returns a manager whose janitor never interferes with the
// test and closes it on cleanup.
func newTestManager(t *testing.T, workers int) *Manager {
	t.Helper()
	return newTestManagerCfg(t, Config{Workers: workers})
}

// newTestManagerCfg starts a manager with a one-hour TTL unless cfg sets
// one, so the janitor (every TTL/4) never runs during a test.
func newTestManagerCfg(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.TTL == 0 {
		cfg.TTL = time.Hour
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

var keys atomic.Int64

// freshKey returns a dedup key no other submission in the test binary
// uses, so no test joins another job by accident.
func freshKey() string { return fmt.Sprintf("key-%d", keys.Add(1)) }

// submit is Submit under a fresh key, with the queue-full path treated
// as a test failure.
func submit(t *testing.T, m *Manager, name string, total int, fn Func) *Job {
	t.Helper()
	j, joined, err := m.Submit(freshKey(), name, "", total, fn)
	if err != nil || joined {
		t.Fatalf("Submit(%s) = joined %v, %v; want a new job", name, joined, err)
	}
	return j
}

// noop is a Func that succeeds at once.
func noop(ctx context.Context, progress func(int, int)) (interface{}, error) { return nil, nil }

// hog occupies a worker until release closes or the job is canceled,
// closing started once it runs.
func hog(started, release chan struct{}) Func {
	return func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) client.JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if info := j.Snapshot(); info.State.Terminal() {
			return info
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state: %+v", j.ID(), j.Snapshot())
	return client.JobInfo{}
}

func TestJobLifecycleSucceeds(t *testing.T) {
	m := newTestManager(t, 2)
	j := submit(t, m, "ok", 3, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		for i := 1; i <= 3; i++ {
			progress(i, 3)
		}
		return "result", nil
	})
	info := waitTerminal(t, j)
	if info.State != client.StateSucceeded || info.Done != 3 || info.Total != 3 {
		t.Fatalf("info = %+v, want succeeded 3/3", info)
	}
	val, err, ok := j.Result()
	if !ok || err != nil || val != "result" {
		t.Fatalf("Result = %v, %v, %v", val, err, ok)
	}
	if info.Started.IsZero() || info.Finished.Before(info.Started) {
		t.Fatalf("timestamps inconsistent: %+v", info)
	}
}

func TestJobFailure(t *testing.T) {
	m := newTestManager(t, 1)
	boom := errors.New("boom")
	j := submit(t, m, "bad", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		return nil, boom
	})
	info := waitTerminal(t, j)
	if info.State != client.StateFailed || info.Err != "boom" {
		t.Fatalf("info = %+v, want failed/boom", info)
	}
	if _, err, ok := j.Result(); !ok || !errors.Is(err, boom) {
		t.Fatalf("Result err = %v, %v", err, ok)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, 1)
	started := make(chan struct{})
	j := submit(t, m, "slow", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if !m.Cancel(j.ID()) {
		t.Fatal("Cancel returned false for a running job")
	}
	info := waitTerminal(t, j)
	if info.State != client.StateCanceled {
		t.Fatalf("state = %s, want canceled", info.State)
	}
	if m.Cancel(j.ID()) {
		t.Fatal("Cancel returned true for a terminal job")
	}
}

func TestQueuedJobWaitsForWorkerSlot(t *testing.T) {
	m := newTestManager(t, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	first := submit(t, m, "hog", 0, hog(started, release))
	// Submission order does not assign workers — dequeue order does — so
	// only submit the second job once the hog owns the only worker.
	<-started
	second := submit(t, m, "queued", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		return nil, nil
	})
	// With one worker the second job must sit in pending while the first
	// holds the worker.
	time.Sleep(20 * time.Millisecond)
	if st := second.Snapshot().State; st != client.StatePending {
		t.Fatalf("queued job state = %s, want pending", st)
	}
	close(release)
	if info := waitTerminal(t, first); info.State != client.StateSucceeded {
		t.Fatalf("first = %+v", info)
	}
	if info := waitTerminal(t, second); info.State != client.StateSucceeded {
		t.Fatalf("second = %+v", info)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, 1)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	submit(t, m, "hog", 0, hog(started, release))
	<-started
	ran := false
	queued := submit(t, m, "victim", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		ran = true
		return nil, nil
	})
	time.Sleep(10 * time.Millisecond)
	if !m.Cancel(queued.ID()) {
		t.Fatal("Cancel returned false for a queued job")
	}
	// A queued job is finalized promptly — the hog still owns the only
	// worker, so this proves Cancel does not wait for a dequeue.
	info := waitTerminal(t, queued)
	if info.State != client.StateCanceled {
		t.Fatalf("state = %s, want canceled", info.State)
	}
	if ran {
		t.Fatal("canceled queued job still ran")
	}
}

// TestSubmitShedsWhenQueueFull pins the backpressure contract: with the
// single worker occupied and the pending queue at capacity, Submit sheds
// with ErrQueueFull instead of buffering, and the shed submission leaves
// no trace in the job table.
func TestSubmitShedsWhenQueueFull(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1, MaxPending: 2})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	submit(t, m, "hog", 0, hog(started, release))
	<-started
	submit(t, m, "queued-0", 0, noop)
	queued2 := submit(t, m, "queued-last", 0, noop)
	shed, _, err := m.Submit(freshKey(), "over", "", 0, noop)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity = %v, %v; want ErrQueueFull", shed, err)
	}
	if shed != nil {
		t.Fatal("shed submission returned a job")
	}
	if n := len(m.List()); n != 3 {
		t.Fatalf("job table holds %d jobs after shed, want 3", n)
	}
	pending, running, capacity, rejected := m.QueueStats()
	if pending != 2 || running != 1 || capacity != 2 || rejected != 1 {
		t.Fatalf("QueueStats = %d, %d, %d, %d; want 2, 1, 2, 1", pending, running, capacity, rejected)
	}

	// Canceling a queued job reclaims its admission slot immediately —
	// backpressure must be relieved by cancellation, not only by workers
	// eventually draining dead entries.
	if !m.Cancel(queued2.ID()) {
		t.Fatal("Cancel returned false for a queued job")
	}
	if pending, _, _, _ := m.QueueStats(); pending != 1 {
		t.Fatalf("pending = %d after canceling a queued job, want 1", pending)
	}
	readmitted, _, err := m.Submit(freshKey(), "readmitted", "", 0, noop)
	if err != nil {
		t.Fatalf("Submit after cancel freed a slot: %v", err)
	}
	if st := readmitted.Snapshot().State; st != client.StatePending {
		t.Fatalf("readmitted job state = %s, want pending", st)
	}
}

// TestNoGoroutinePerPendingJob pins the tentpole resource property: a
// deep pending queue must not park one goroutine per queued job. The old
// design spawned a goroutine per Submit; with a fixed worker pool the
// goroutine count stays flat no matter how many jobs wait.
func TestNoGoroutinePerPendingJob(t *testing.T) {
	m := newTestManagerCfg(t, Config{Workers: 1, MaxPending: 256})
	release := make(chan struct{})
	started := make(chan struct{})
	submit(t, m, "hog", 0, hog(started, release))
	<-started
	before := runtime.NumGoroutine()
	const queued = 200
	jobs := make([]*Job, 0, queued)
	for i := 0; i < queued; i++ {
		jobs = append(jobs, submit(t, m, "parked", 0,
			func(ctx context.Context, progress func(int, int)) (interface{}, error) { return nil, nil }))
	}
	after := runtime.NumGoroutine()
	if grew := after - before; grew > queued/10 {
		t.Fatalf("goroutines grew by %d for %d pending jobs (goroutine-per-job regression?)", grew, queued)
	}
	close(release)
	for _, j := range jobs {
		if info := waitTerminal(t, j); info.State != client.StateSucceeded {
			t.Fatalf("queued job = %+v", info)
		}
	}
}

// TestCloseCancelsQueuedJobs: shutdown must not strand pending jobs in a
// non-terminal state.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPending: 8, TTL: time.Hour})
	started := make(chan struct{})
	hog, _, err := m.Submit(freshKey(), "hog", "", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, _, err := m.Submit(freshKey(), "queued", "", 0, noop)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	m.Close()
	for _, j := range append(queued, hog) {
		if st := j.Snapshot().State; st != client.StateCanceled {
			t.Fatalf("job %s after Close: state %s, want canceled", j.ID(), st)
		}
	}
	if _, _, err := m.Submit(freshKey(), "late", "", 0, noop); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestEventLogMonotonicAndStreamable(t *testing.T) {
	m := newTestManager(t, 4)
	j := submit(t, m, "noisy", 5, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		// Out-of-order and duplicate ticks: the log must stay monotonic.
		progress(2, 5)
		progress(1, 5)
		progress(2, 5)
		progress(4, 5)
		progress(5, 5)
		return nil, nil
	})
	waitTerminal(t, j)

	var all []client.Event
	var seq int64
	for {
		events, more, done := j.EventsSince(seq)
		all = append(all, events...)
		if len(events) > 0 {
			seq = events[len(events)-1].Seq
		}
		if done {
			break
		}
		<-more
	}
	if len(all) < 4 {
		t.Fatalf("event log too short: %+v", all)
	}
	if all[0].Type != "created" {
		t.Fatalf("first event = %+v, want created", all[0])
	}
	if last := all[len(all)-1]; last.Type != string(client.StateSucceeded) {
		t.Fatalf("last event = %+v, want succeeded", last)
	}
	lastDone, lastSeq := -1, int64(0)
	for _, ev := range all {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %+v", all)
		}
		lastSeq = ev.Seq
		if ev.Type == "progress" {
			if ev.Done <= lastDone {
				t.Fatalf("progress regressed: %+v", all)
			}
			lastDone = ev.Done
		}
	}
	if lastDone != 5 {
		t.Fatalf("final progress = %d, want 5 (got %+v)", lastDone, all)
	}
}

// TestEventLogBounded pins the memory property the bounded ring buys: a
// job emitting far more progress ticks than the tail keeps only the tail
// (plus lifecycle events), the retained stream is still strictly
// monotonic in both Seq and Done, and it still ends with the terminal
// event carrying the final count.
func TestEventLogBounded(t *testing.T) {
	const tail = eventTail
	const ticks = 10_000
	m := newTestManager(t, 1)
	j := submit(t, m, "firehose", ticks, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		for i := 1; i <= ticks; i++ {
			progress(i, ticks)
		}
		return nil, nil
	})
	waitTerminal(t, j)

	retained, coalesced := j.EventCount()
	// created + started + tail progress events + terminal.
	if want := tail + 3; retained != want {
		t.Fatalf("retained %d events after %d ticks, want %d", retained, ticks, want)
	}
	if coalesced != ticks-tail {
		t.Fatalf("coalesced = %d, want %d", coalesced, ticks-tail)
	}

	events, _, done := j.EventsSince(0)
	if !done {
		t.Fatal("terminal job reported incomplete log")
	}
	if len(events) != retained {
		t.Fatalf("EventsSince(0) returned %d events, retained %d", len(events), retained)
	}
	lastSeq, lastDone := int64(0), -1
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq regressed in bounded log: %+v", events)
		}
		lastSeq = ev.Seq
		if ev.Type == "progress" {
			if ev.Done <= lastDone {
				t.Fatalf("done regressed in bounded log: %+v", events)
			}
			lastDone = ev.Done
		}
	}
	final := events[len(events)-1]
	if final.Type != string(client.StateSucceeded) || final.Done != ticks {
		t.Fatalf("final event = %+v, want succeeded %d/%d", final, ticks, ticks)
	}
	// The retained progress window is the most recent tail, not the oldest.
	var firstProgress client.Event
	for _, ev := range events {
		if ev.Type == "progress" {
			firstProgress = ev
			break
		}
	}
	if firstProgress.Done != ticks-tail+1 {
		t.Fatalf("oldest retained progress = %d, want %d (high-water tail)", firstProgress.Done, ticks-tail+1)
	}
}

func TestTTLGarbageCollection(t *testing.T) {
	m := newTestManager(t, 1)
	j := submit(t, m, "ephemeral", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		return nil, nil
	})
	waitTerminal(t, j)
	live := submit(t, m, "running", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if n := m.gc(time.Now()); n != 0 {
		t.Fatalf("gc before TTL dropped %d jobs", n)
	}
	if n := m.gc(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("gc after TTL dropped %d jobs, want 1", n)
	}
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("expired job still queryable")
	}
	// The still-running job must survive any GC horizon.
	if _, ok := m.Get(live.ID()); !ok {
		t.Fatal("running job was collected")
	}
	m.Cancel(live.ID())
	waitTerminal(t, live)
}

func TestListOrder(t *testing.T) {
	m := newTestManager(t, 4)
	var ids []string
	for i := 0; i < 3; i++ {
		j := submit(t, m, "n", 0, func(ctx context.Context, progress func(int, int)) (interface{}, error) {
			return nil, nil
		})
		ids = append(ids, j.ID())
		time.Sleep(2 * time.Millisecond) // distinct creation times
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d, want 3", len(list))
	}
	for i, info := range list {
		if info.ID != ids[i] {
			t.Fatalf("List order = %v, want %v", list, ids)
		}
	}
	if created, _ := m.Counters(); created != 3 {
		t.Fatalf("created counter = %d, want 3", created)
	}
}

func TestSubmitDone(t *testing.T) {
	m := newTestManager(t, 1)
	j, _, err := m.SubmitDone(freshKey(), "warm sweep", "", 6, "restored-result")
	if err != nil {
		t.Fatal(err)
	}
	info := j.Snapshot()
	if info.State != client.StateSucceeded || info.Done != 6 || info.Total != 6 {
		t.Fatalf("snapshot = %+v", info)
	}
	val, jobErr, done := j.Result()
	if !done || jobErr != nil || val != "restored-result" {
		t.Fatalf("Result = %v, %v, %v", val, jobErr, done)
	}
	// The event log is complete immediately: created + succeeded, done.
	events, _, finished := j.EventsSince(0)
	if !finished || len(events) != 2 ||
		events[0].Type != "created" || events[1].Type != "succeeded" {
		t.Fatalf("events = %+v, finished = %v", events, finished)
	}
	// It is findable like any other job and cancel refuses it.
	if got, ok := m.Get(j.ID()); !ok || got != j {
		t.Fatal("SubmitDone job not registered")
	}
	if m.Cancel(j.ID()) {
		t.Fatal("canceled an already-succeeded job")
	}
	created, completed := m.Counters()
	if created != 1 || completed != 1 {
		t.Fatalf("counters = %d, %d", created, completed)
	}
	// It consumed no queue slot and never counted as running.
	if pending, running, _, _ := m.QueueStats(); pending != 0 || running != 0 {
		t.Fatalf("pending, running = %d, %d", pending, running)
	}
}

func TestSubmitDoneAfterClose(t *testing.T) {
	m := NewManager(Config{Workers: 1, TTL: time.Hour})
	m.Close()
	if _, _, err := m.SubmitDone(freshKey(), "late", "", 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestRunningCounter pins the O(1) running gauge: it tracks the
// pending→running and running→terminal transitions exactly, and a
// canceled pending job never decrements it below zero.
func TestRunningCounter(t *testing.T) {
	m := newTestManager(t, 2)
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	fn := func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	a := submit(t, m, "a", 0, fn)
	b := submit(t, m, "b", 0, fn)
	<-started
	<-started
	if _, running, _, _ := m.QueueStats(); running != 2 {
		t.Fatalf("running = %d with both workers busy, want 2", running)
	}
	// A queued job canceled while pending must not touch the counter.
	victim := submit(t, m, "victim", 0, fn)
	if !m.Cancel(victim.ID()) {
		t.Fatal("Cancel(queued) = false")
	}
	waitTerminal(t, victim)
	if _, running, _, _ := m.QueueStats(); running != 2 {
		t.Fatalf("running = %d after canceling a pending job, want 2", running)
	}
	close(release)
	waitTerminal(t, a)
	waitTerminal(t, b)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running, _, _ := m.QueueStats(); running == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, running, _, _ := m.QueueStats()
			t.Fatalf("running = %d after all jobs finished, want 0", running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobTraceHandle: the trace id given at submission is surfaced on
// every snapshot, for both queued and pre-completed jobs.
func TestJobTraceHandle(t *testing.T) {
	m := newTestManager(t, 1)
	j, _, err := m.Submit(freshKey(), "traced", "tr-123", 0, noop)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Snapshot().Trace; got != "tr-123" {
		t.Fatalf("Trace = %q, want tr-123", got)
	}
	waitTerminal(t, j)
	done, _, err := m.SubmitDone(freshKey(), "warm", "tr-456", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := done.Snapshot().Trace; got != "tr-456" {
		t.Fatalf("warm Trace = %q, want tr-456", got)
	}
}

// TestSubmitJoinsLiveJob: a second submission under a key whose job is
// pending, running or succeeded joins that job — Submit and SubmitDone
// alike — and its own function never runs.
func TestSubmitJoinsLiveJob(t *testing.T) {
	m := newTestManager(t, 1)
	hogStarted, releaseHog := make(chan struct{}), make(chan struct{})
	submit(t, m, "hog", 0, hog(hogStarted, releaseHog))
	<-hogStarted

	var joinedRuns atomic.Int64
	joinedFn := func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		joinedRuns.Add(1)
		return nil, nil
	}
	started, release := make(chan struct{}), make(chan struct{})
	first, joined, err := m.Submit("k", "first", "", 0, hog(started, release))
	if err != nil || joined {
		t.Fatalf("first Submit = joined %v, %v", joined, err)
	}
	join := func(want client.JobState) {
		t.Helper()
		if st := first.Snapshot().State; st != want {
			t.Fatalf("first job is %s, want %s", st, want)
		}
		j, joined, err := m.Submit("k", "again", "", 0, joinedFn)
		if err != nil || !joined || j != first {
			t.Fatalf("Submit while %s = joined %v, %v, same job %v; want the first job, joined", want, joined, err, j == first)
		}
		j, joined, err = m.SubmitDone("k", "warm", "", 1, "restored")
		if err != nil || !joined || j != first {
			t.Fatalf("SubmitDone while %s = joined %v, %v, same job %v; want the first job, joined", want, joined, err, j == first)
		}
		if j, ok := m.Lookup("k"); !ok || j != first {
			t.Fatalf("Lookup while %s = %v, %v; want the first job", want, j, ok)
		}
	}
	join(client.StatePending)
	close(releaseHog)
	<-started
	join(client.StateRunning)
	close(release)
	waitTerminal(t, first)
	join(client.StateSucceeded)

	if n := joinedRuns.Load(); n != 0 {
		t.Fatalf("joined submissions ran %d times, want 0", n)
	}
	if created, _ := m.Counters(); created != 2 {
		t.Fatalf("created = %d, want 2 (the hog and the first job)", created)
	}
	if n := len(m.List()); n != 2 {
		t.Fatalf("job table holds %d jobs, want 2", n)
	}
}

// TestFailedAndCanceledJobsFreeTheirKey: a failed or canceled job answers
// no key, so the next submission under it creates a new job, which takes
// the key over.
func TestFailedAndCanceledJobsFreeTheirKey(t *testing.T) {
	m := newTestManager(t, 1)
	boom := errors.New("boom")
	fail := func(ctx context.Context, progress func(int, int)) (interface{}, error) { return nil, boom }
	cancelMe := func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	for _, tc := range []struct {
		name   string
		fn     Func
		finish func(j *Job)
		want   client.JobState
	}{
		{"failed", fail, func(*Job) {}, client.StateFailed},
		{"canceled", cancelMe, func(j *Job) { m.Cancel(j.ID()) }, client.StateCanceled},
	} {
		key := "key-" + tc.name
		old, _, err := m.Submit(key, tc.name, "", 0, tc.fn)
		if err != nil {
			t.Fatal(err)
		}
		tc.finish(old)
		if info := waitTerminal(t, old); info.State != tc.want {
			t.Fatalf("%s: state %s", tc.name, info.State)
		}
		if j, ok := m.Lookup(key); ok {
			t.Fatalf("%s job still answers its key: %s", tc.name, j.ID())
		}
		again, joined, err := m.Submit(key, tc.name+" again", "", 0, noop)
		if err != nil || joined || again == old {
			t.Fatalf("Submit after %s = joined %v, %v; want a new job", tc.name, joined, err)
		}
		if j, ok := m.Lookup(key); !ok || j != again {
			t.Fatalf("after %s the key answers %v, %v; want the new job", tc.name, j, ok)
		}
		if info := waitTerminal(t, again); info.State != client.StateSucceeded {
			t.Fatalf("resubmission after %s = %+v", tc.name, info)
		}
	}
	// SubmitDone takes a key over the same way.
	old, _, err := m.Submit("key-warm", "fails", "", 0, fail)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, old)
	warm, joined, err := m.SubmitDone("key-warm", "warm", "", 1, "restored")
	if err != nil || joined || warm == old {
		t.Fatalf("SubmitDone after failure = joined %v, %v; want a new job", joined, err)
	}
	if j, ok := m.Lookup("key-warm"); !ok || j != warm {
		t.Fatal("the restored job does not answer the key it took over")
	}
}

// TestGCDropsKeyWithJob: collecting a job drops its key, so the index
// never outlives the table — unless a newer job has taken the key over,
// which keeps it.
func TestGCDropsKeyWithJob(t *testing.T) {
	m := newTestManager(t, 1)
	done, _, err := m.Submit("collected", "done", "", 0, noop)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, done)

	failed, _, err := m.Submit("taken-over", "fails", "", 0,
		func(ctx context.Context, progress func(int, int)) (interface{}, error) {
			return nil, errors.New("boom")
		})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, failed)
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	newer, joined, err := m.Submit("taken-over", "newer", "", 0, hog(started, release))
	if err != nil || joined {
		t.Fatalf("Submit = joined %v, %v", joined, err)
	}
	<-started

	if n := m.gc(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("gc dropped %d jobs, want 2", n)
	}
	if _, ok := m.Lookup("collected"); ok {
		t.Fatal("a collected job still answers its key")
	}
	if j, ok := m.Lookup("taken-over"); !ok || j != newer {
		t.Fatalf("collecting the old job dropped the newer job's key: %v, %v", j, ok)
	}
	m.mu.Lock()
	indexed := len(m.byKey)
	m.mu.Unlock()
	if indexed != 1 {
		t.Fatalf("key index holds %d entries after gc, want 1", indexed)
	}
}

// TestConcurrentSubmitsOneJob: N submissions racing under one key create
// one job and join it N-1 times, and the job runs once.
func TestConcurrentSubmitsOneJob(t *testing.T) {
	m := newTestManager(t, 4)
	const n = 16
	var runs atomic.Int64
	fn := func(ctx context.Context, progress func(int, int)) (interface{}, error) {
		runs.Add(1)
		return nil, nil
	}
	got := make([]*Job, n)
	joins := make([]bool, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			j, joined, err := m.Submit("racy", "racer", "", 0, fn)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			got[i], joins[i] = j, joined
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	created := 0
	for i := 0; i < n; i++ {
		if !joins[i] {
			created++
		}
		if got[i] != got[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, got[i].ID(), got[0].ID())
		}
	}
	if created != 1 {
		t.Fatalf("%d submissions created a job, want 1 (and %d joins)", created, n-1)
	}
	waitTerminal(t, got[0])
	if r := runs.Load(); r != 1 {
		t.Fatalf("the job ran %d times, want 1", r)
	}
	if c, _ := m.Counters(); c != 1 {
		t.Fatalf("created counter = %d, want 1", c)
	}
}
