package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/cluster"
)

// ErrQueueFull is returned by Submit when the bounded pending queue is at
// capacity: the caller should shed load (HTTP 429) rather than buffer.
var ErrQueueFull = errors.New("jobs: pending queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// Func is the work a job runs. It must honor ctx cancellation and may
// report progress (safe to call concurrently; the job keeps a high-water
// mark, so out-of-order calls never produce a regressing counter).
type Func func(ctx context.Context, progress func(done, total int)) (interface{}, error)

// eventTail bounds the retained progress events per job. Older ticks are
// coalesced away (Done is a high-water mark, so streams stay monotonic);
// lifecycle events are always retained.
const eventTail = 256

// Job is one unit of tracked work.
type Job struct {
	id    string
	key   string // the dedup key the job was submitted under
	name  string
	trace string
	node  string

	mu       sync.Mutex
	state    client.JobState
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	total    int
	err      error
	result   interface{}
	// The event log, bounded: pre holds the created/started events, ring
	// the trailing window of progress events (oldest at ringStart), term
	// the terminal event. nextSeq numbers every event ever appended, so
	// sequence numbers stay strictly increasing even as old progress
	// events are coalesced out of the ring.
	pre       []client.Event
	ring      []client.Event
	ringStart int
	term      *client.Event
	nextSeq   int64
	notify    chan struct{} // closed and replaced on every append
	cancel    context.CancelFunc
	//pmlint:allow spanpair the job's cancellation context outlives the submitting request by design; it is derived from the manager's base and released on finish
	ctx context.Context
	fn  Func // cleared on finish so the closure's captures free early
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Snapshot returns the job's current state.
func (j *Job) Snapshot() client.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := client.JobInfo{
		ID: j.id, Name: j.name, Node: j.node, Trace: j.trace, State: j.state,
		Created: j.created, Started: j.started, Finished: j.finished,
		Done: j.done, Total: j.total,
	}
	if j.err != nil {
		info.Err = j.err.Error()
	}
	return info
}

// Result returns the job's result value once it has succeeded. ok is
// false while the job is still pending or running; a terminal err is
// returned for failed and canceled jobs.
func (j *Job) Result() (val interface{}, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil, false
	}
	return j.result, j.err, true
}

// EventsSince returns the retained events with Seq > seq, a channel that
// is closed when further events arrive, and whether the log is complete
// (the job is terminal and events holds its tail). Streaming clients
// loop: drain, then wait on the channel unless done. Progress events
// older than the retained tail are gone — Done is a high-water mark, so
// the tail alone still yields a monotonic stream.
func (j *Job) EventsSince(seq int64) (events []client.Event, more <-chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.pre {
		if j.pre[i].Seq > seq {
			events = append(events, j.pre[i])
		}
	}
	n := len(j.ring)
	for i := 0; i < n; i++ {
		ev := j.ring[(j.ringStart+i)%n]
		if ev.Seq > seq {
			events = append(events, ev)
		}
	}
	if j.term != nil && j.term.Seq > seq {
		events = append(events, *j.term)
	}
	return events, j.notify, j.state.Terminal()
}

// append records an event under j.mu and wakes streamers. Progress events
// go to the bounded ring, overwriting the oldest retained tick once full;
// lifecycle events are always retained.
func (j *Job) append(typ string, now time.Time) {
	j.nextSeq++
	ev := client.Event{
		Seq: j.nextSeq, Time: now, Type: typ,
		Done: j.done, Total: j.total,
	}
	if j.err != nil {
		ev.Err = j.err.Error()
	}
	switch typ {
	case "progress":
		if len(j.ring) < eventTail {
			j.ring = append(j.ring, ev)
		} else {
			j.ring[j.ringStart] = ev
			j.ringStart = (j.ringStart + 1) % len(j.ring)
		}
	case "created", "started":
		j.pre = append(j.pre, ev)
	default: // terminal: succeeded, failed, canceled
		j.term = &ev
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// progress is the high-water-mark progress sink handed to Func. Regressing
// or duplicate ticks are dropped, so the event log's Done counter is
// strictly increasing.
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != client.StateRunning || done <= j.done {
		return
	}
	j.done = done
	if total > 0 {
		j.total = total
	}
	j.append("progress", time.Now())
}

// Manager owns the job table, the bounded pending queue and the worker
// pool.
type Manager struct {
	// mu guards the job table, indexed by id and by dedup key. It is held
	// only over map operations, job-state reads and queue admission: the
	// lock order is mu → qmu and mu → Job.mu, and no Func runs under it.
	mu    sync.Mutex
	jobs  map[string]*Job
	byKey map[string]*Job // dedup key -> the latest job committed under it
	ttl   time.Duration
	node  string // id prefix of every job; "" single-node
	//pmlint:allow spanpair the manager's base context is the worker pool's shutdown root, canceled exactly once by Close
	base        context.Context
	stop        context.CancelFunc
	wg          sync.WaitGroup // worker goroutines
	janitorDone chan struct{}

	// qmu guards the pending queue. A slice rather than a channel so
	// Cancel can splice a canceled job out and reclaim its admission
	// slot immediately, and so the pending gauge is exact (len under the
	// lock, never transiently negative). wake carries at most one
	// pending signal; dequeue re-signals while the queue is non-empty,
	// so one buffered token is enough to chain every idle worker awake.
	qmu        sync.Mutex
	queue      []*Job
	maxPending int
	closed     bool
	wake       chan struct{}

	created   atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	// running counts jobs currently in StateRunning, maintained at the
	// two transitions (worker pickup, finalize) so gauges read it in O(1)
	// instead of snapshotting every job on each /metrics scrape.
	running atomic.Int64
}

// Config parameterizes a Manager. The manager writes no log: a job's
// event log and its snapshot's stamps are its lifecycle record, and the
// serving layer times it with its own spans.
type Config struct {
	// Workers is the fixed worker-pool size — how many jobs run
	// concurrently; <= 0 means 1.
	Workers int
	// MaxPending bounds the admission queue of jobs waiting for a
	// worker; <= 0 means 64. Submit returns ErrQueueFull beyond it.
	MaxPending int
	// TTL is how long finished jobs stay queryable; <= 0 means 1 hour.
	// The janitor collects expired jobs, with their keys, every TTL/4
	// (at least every second).
	TTL time.Duration
	// Node, when non-empty, namespaces every job id as "<node>~<id>" —
	// the cluster-routable form: any node can resolve the prefix to the
	// node that owns the job — and stamps JobInfo.Node. Empty (single-node)
	// leaves ids bare.
	Node string
}

// NewManager starts a manager: its fixed worker pool and its janitor
// goroutine. Call Close to stop it.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Hour
	}
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		jobs:        make(map[string]*Job),
		byKey:       make(map[string]*Job),
		maxPending:  cfg.MaxPending,
		wake:        make(chan struct{}, 1),
		ttl:         cfg.TTL,
		node:        cfg.Node,
		base:        base,
		stop:        stop,
		janitorDone: make(chan struct{}),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	go m.janitor(max(cfg.TTL/4, time.Second))
	return m
}

// Submit registers a job under key on the pending queue, to be picked up
// by the next free worker — unless a live job already answers key, in
// which case Submit returns that job with joined true and fn never runs.
// A key is live while its job is pending, running or succeeded; a failed
// or canceled job answers no key, so the next submission under it runs
// again and takes the key over. The join check and the commit share one
// critical section, so racing identical submissions create one job.
//
// Submit never blocks: when the queue is full the job is shed with
// ErrQueueFull and nothing is retained. trace names the submitter's
// telemetry trace ("" for none), so job snapshots carry the correlation
// handle; it never affects scheduling. total may be 0 when the amount of
// work is unknown up front; progress ticks refine it.
func (m *Manager) Submit(key, name, trace string, total int, fn Func) (j *Job, joined bool, err error) {
	now := time.Now()
	j = &Job{
		id: m.newJobID(), key: key, name: name, trace: trace, node: m.node, state: client.StatePending,
		created: now, total: total,
		notify: make(chan struct{}),
		fn:     fn,
	}
	j.append("created", now)

	m.mu.Lock()
	defer m.mu.Unlock()
	if live, ok := m.liveLocked(key); ok {
		return live, true, nil
	}
	if err = m.enqueue(j); err != nil {
		return nil, false, err
	}
	m.commitLocked(j)
	m.signal()
	return j, false, nil
}

// enqueue admits j to the pending queue. Admission is decided under qmu —
// the same lock Close takes to mark the manager closed and drain
// stragglers — so a submission either lands before the drain (and is
// finalized by it) or observes closed. The job's context is made only
// once the job is admitted, so a refused submission has nothing to
// release.
func (m *Manager) enqueue(j *Job) error {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(m.queue) >= m.maxPending {
		m.rejected.Add(1)
		return ErrQueueFull
	}
	j.ctx, j.cancel = context.WithCancel(m.base)
	m.queue = append(m.queue, j)
	return nil
}

// SubmitDone registers a job under key that is already succeeded,
// carrying val as its result, unless a live job already answers key: then
// it returns that job with joined true, as Submit does. This is the
// warm-start path: when the serving layer finds a completed sweep table
// in the disk store, the restored result still gets a job identity — the
// same /v1/jobs endpoints, event stream and result views as a freshly
// computed one — without consuming a queue slot or a worker. The job's
// event log holds a created event and a terminal succeeded event with
// Done == Total.
func (m *Manager) SubmitDone(key, name, trace string, total int, val interface{}) (j *Job, joined bool, err error) {
	now := time.Now()
	j = &Job{
		id: m.newJobID(), key: key, name: name, trace: trace, node: m.node, state: client.StateSucceeded,
		created: now, started: now, finished: now,
		done: total, total: total,
		result: val,
		notify: make(chan struct{}),
		cancel: func() {}, // no context: nothing will ever run
	}
	j.append("created", now)
	j.append(string(client.StateSucceeded), now)

	m.mu.Lock()
	defer m.mu.Unlock()
	if live, ok := m.liveLocked(key); ok {
		return live, true, nil
	}
	m.qmu.Lock()
	closed := m.closed
	m.qmu.Unlock()
	if closed {
		return nil, false, ErrClosed
	}
	m.commitLocked(j)
	m.completed.Add(1)
	return j, false, nil
}

// Lookup returns the live job that answers key, if there is one.
func (m *Manager) Lookup(key string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked(key)
}

// liveLocked returns the job indexed under key while it is pending,
// running or succeeded. Called with m.mu held.
func (m *Manager) liveLocked(key string) (*Job, bool) {
	j, ok := m.byKey[key]
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == client.StateFailed || state == client.StateCanceled {
		return nil, false
	}
	return j, true
}

// commitLocked enters a new job into the table under its id and its key,
// taking the key over from any failed or canceled job. Called with m.mu
// held.
func (m *Manager) commitLocked(j *Job) {
	m.jobs[j.id] = j
	m.byKey[j.key] = j
	m.created.Add(1)
}

// signal leaves at most one pending wake token for the workers.
func (m *Manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// dequeue pops the oldest pending job, re-arming the wake token while
// work remains so sibling workers chain awake. Returns nil when empty.
func (m *Manager) dequeue() *Job {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if len(m.queue) == 0 {
		return nil
	}
	j := m.queue[0]
	m.queue = m.queue[1:]
	if len(m.queue) > 0 {
		m.signal()
	}
	return j
}

// removeQueued splices a still-queued job out of the pending queue,
// reclaiming its admission slot. Returns false when the job was already
// dequeued (a worker owns it).
func (m *Manager) removeQueued(target *Job) bool {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	for i, j := range m.queue {
		if j == target {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return true
		}
	}
	return false
}

// worker drains the pending queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		if j := m.dequeue(); j != nil {
			m.run(j)
			continue
		}
		select {
		case <-m.wake:
		case <-m.base.Done():
			return
		}
	}
}

// run executes one dequeued job and finalizes it. Jobs canceled while
// queued never run their Func.
func (m *Manager) run(j *Job) {
	// Release the job's context child from the manager's base context
	// even on normal completion; otherwise every finished job would stay
	// registered there until Close, growing the daemon's memory forever.
	defer j.cancel()
	j.mu.Lock()
	if j.state.Terminal() {
		// Canceled while queued and already finalized by Cancel.
		j.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		// Canceled while queued (manager shutdown): never ran.
		j.mu.Unlock()
		m.finish(j, nil, context.Canceled)
		return
	}
	j.state = client.StateRunning
	j.started = time.Now()
	m.running.Add(1)
	j.append("started", j.started)
	ctx, fn := j.ctx, j.fn
	j.mu.Unlock()

	val, err := fn(ctx, j.progress)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	m.finish(j, val, err)
}

// finish drives the job to its terminal state and appends the terminal
// event.
func (m *Manager) finish(j *Job, val interface{}, err error) {
	m.finalize(j, val, err, false)
}

// finalize is the single terminal transition. With onlyPending it is a
// no-op unless the job is still queued — that is how Cancel finalizes a
// pending job promptly without racing a worker that just started it.
func (m *Manager) finalize(j *Job, val interface{}, err error, onlyPending bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || (onlyPending && j.state != client.StatePending) {
		return
	}
	if j.state == client.StateRunning {
		m.running.Add(-1)
	}
	j.fn = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = client.StateSucceeded
		j.result = val
		if j.total > 0 {
			j.done = j.total
		}
	case errors.Is(err, context.Canceled):
		j.state = client.StateCanceled
		j.err = context.Canceled
		// Keep whatever the Func chose to return alongside the
		// cancellation error. The sweep Func returns nil here, so a
		// canceled sweep has no result view; a Func that hands back
		// partial work keeps it queryable.
		j.result = val
	default:
		j.state = client.StateFailed
		j.err = err
	}
	j.append(string(j.state), j.finished)
	m.completed.Add(1)
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a pending or running job. It returns
// false when the job does not exist or is already terminal. A job still
// on the pending queue is spliced out and finalized immediately — its
// Func never runs and its admission slot frees right away, so canceling
// queued work relieves backpressure without waiting for a worker; a
// running job flips to canceled once its function returns.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	pending := j.state == client.StatePending
	j.mu.Unlock()
	if terminal {
		return false
	}
	j.cancel()
	if pending {
		m.removeQueued(j)
		// Runs even when the splice missed (a worker dequeued the job in
		// the meantime): finalize is a no-op unless the job is still
		// pending, so it can never clobber a run the worker started.
		m.finalize(j, nil, context.Canceled, true)
	}
	return true
}

// List snapshots every tracked job, oldest first.
func (m *Manager) List() []client.JobInfo {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]client.JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Counters reports how many jobs were ever created and completed.
func (m *Manager) Counters() (created, completed int64) {
	return m.created.Load(), m.completed.Load()
}

// QueueStats reports the admission queue and the worker pool: jobs
// currently waiting for a worker, jobs currently running (an O(1)
// counter maintained at the state transitions — scrapes never iterate
// the job table), the queue capacity, and how many submissions were
// shed with ErrQueueFull.
func (m *Manager) QueueStats() (pending, running, capacity int, rejected int64) {
	m.qmu.Lock()
	pending = len(m.queue)
	m.qmu.Unlock()
	return pending, int(m.running.Load()), m.maxPending, m.rejected.Load()
}

// janitor periodically garbage-collects expired jobs until Close.
func (m *Manager) janitor(interval time.Duration) {
	defer close(m.janitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.gc(time.Now())
		case <-m.base.Done():
			return
		}
	}
}

// gc removes terminal jobs whose finish time is older than the TTL,
// with their keys, returning how many were dropped. A key a newer job
// has taken over stays with that job.
func (m *Manager) gc(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && now.Sub(j.finished) > m.ttl
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			if m.byKey[j.key] == j {
				delete(m.byKey, j.key)
			}
			n++
		}
	}
	return n
}

// Close refuses new submissions, cancels every job, waits for the
// workers to exit, finalizes whatever was still queued, and stops the
// janitor. The closed flag flips under qmu before anything else, so a
// racing Submit either gets ErrClosed or lands in the queue this drain
// finalizes — no job can be stranded pending.
func (m *Manager) Close() {
	m.qmu.Lock()
	m.closed = true
	m.qmu.Unlock()
	m.stop()
	m.wg.Wait()
	m.qmu.Lock()
	rest := m.queue
	m.queue = nil
	m.qmu.Unlock()
	for _, j := range rest {
		m.finish(j, nil, context.Canceled)
	}
	<-m.janitorDone
}

// newID returns a random 16-hex-digit job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// newJobID returns a fresh job id, node-prefixed when the manager is
// node-scoped: jobs are born with their routable identity, so every
// surface — snapshots, event streams, dedup joins — carries the id any
// cluster node can resolve.
func (m *Manager) newJobID() string {
	if m.node == "" {
		return newID()
	}
	return cluster.RoutableID(m.node, newID())
}
