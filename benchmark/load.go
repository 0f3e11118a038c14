package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/telemetry"
)

// outcome is one request as the load saw it.
type outcome struct {
	done  bool // the request was sent and answered (or failed)
	index int  // the request's position in the list
	err   error
	// latency runs from send (closed loop) or from the due time (open
	// loop) to the last response of the request.
	latency time.Duration
	// lag is how late the open-loop generator sent the request.
	lag time.Duration
	// served is the canonical form of the response (see canonSynth and
	// canonView), compared against the library's answer.
	served string
	// cached reports the daemon answered without running the flow;
	// deduped that a sweep joined a live job.
	cached, deduped bool
	// queueWait and run come from a computed sweep job's lifecycle events.
	queueWait, run time.Duration
	// trace holds the client-side spans of a traced request.
	trace *telemetry.Trace
}

// computed reports whether the daemon ran the flow for this request.
func (o *outcome) computed() bool { return o.err == nil && !o.cached && !o.deduped }

// requestList is the list a load sends from. A fresh-design list grows on
// demand past its pre-built head, so a daemon faster than the head allows
// still gets new designs instead of running out; the client that needs a
// request past the head builds it before starting its latency clock.
type requestList struct {
	mu   sync.Mutex
	reqs []Request
	// grow builds request i; nil for a fixed list.
	grow func(i int) (Request, error)
}

// at returns request i, building the list up to it when it may grow.
func (l *requestList) at(i int) (Request, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.reqs) <= i && l.grow != nil {
		r, err := l.grow(len(l.reqs))
		if err != nil {
			return Request{}, err
		}
		l.reqs = append(l.reqs, r)
	}
	return l.reqs[i], nil
}

// all returns the list as built so far.
func (l *requestList) all() []Request {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reqs
}

// loader sends requests through the client SDK.
type loader struct {
	c      *client.Client
	list   *requestList
	traced bool
	// d, when set, has its peak RSS read into rss once rssAfter requests
	// have completed; only the goroutine completing that request writes
	// rss and rssErr, and they are read after the load.
	d         *daemon
	rssAfter  int64
	completed atomic.Int64
	rss       float64
	rssErr    error
}

// newClient returns an SDK client that never retries (a 429 counts as
// refused) over at most conns connections.
func newClient(url string, conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0, 0)), tr
}

// span runs f inside a span of tctx's trace (a no-op without one). The
// SDK call inside f gets its own context: no trace reaches program code.
func span(tctx context.Context, name string, f func() error) error {
	_, sp := telemetry.StartSpan(tctx, name)
	err := f()
	sp.End()
	return err
}

// do sends request i and waits for its last response. due starts the
// request's latency clock (open loop); zero starts it at the send.
func (l *loader) do(ctx context.Context, i int, due time.Time) outcome {
	o := outcome{done: true, index: i}
	r, err := l.list.at(i)
	if err != nil {
		o.err = fmt.Errorf("building request %d: %w", i, err)
		return o
	}
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	tctx := context.Background()
	if l.traced {
		o.trace = telemetry.NewTrace("")
		tctx = telemetry.WithTrace(tctx, o.trace)
	}
	if r.Kind == "synth" {
		o.err = span(tctx, "server.synthesize", func() error {
			req := client.SynthesizeRequest{Source: r.Source, Options: client.Options{Budget: r.Budget}}
			if r.Emit != "" {
				req.Emit = []string{r.Emit}
			}
			res, err := l.c.Synthesize(ctx, req)
			if err != nil {
				return err
			}
			o.cached = res.Cached
			o.served = canonSynth(res.Row, res.VHDL, res.Verilog)
			return nil
		})
	} else {
		o.err = l.sweep(ctx, tctx, r, &o)
	}
	o.latency = time.Since(start)
	if l.d != nil && l.completed.Add(1) == l.rssAfter {
		l.rss, l.rssErr = l.d.peakRSS()
	}
	return o
}

// endRSS reads the peak RSS at the end of the load unless it was read at
// its count, and reports whether a count was set but never reached.
func (l *loader) endRSS() (late bool) {
	if l.rss != 0 || l.rssErr != nil {
		return false
	}
	l.rss, l.rssErr = l.d.peakRSS()
	return l.rssAfter > 0
}

// sweep submits r, follows the job's events to its end and fetches the
// requested view.
func (l *loader) sweep(ctx, tctx context.Context, r Request, o *outcome) error {
	var job *client.SweepJob
	err := span(tctx, "server.sweep_submit", func() error {
		var err error
		job, err = l.c.Sweep(ctx, client.SweepRequest{Source: r.Source,
			Spec: client.SweepSpec{BudgetMin: r.BudgetMin, BudgetMax: r.BudgetMax}})
		return err
	})
	if err != nil {
		return err
	}
	o.cached, o.deduped = job.Cached, job.Deduped
	if !job.State.Terminal() {
		var created, started, finished time.Time
		final := ""
		err := span(tctx, "server.events", func() error {
			return l.c.StreamEvents(ctx, job.ID, 0, func(ev client.Event) error {
				switch ev.Type {
				case "created":
					created = ev.Time
				case "started":
					started = ev.Time
				}
				if client.JobState(ev.Type).Terminal() {
					final, finished = ev.Type, ev.Time
					return client.StopStreaming
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		if final != string(client.StateSucceeded) {
			return fmt.Errorf("sweep job %s ended %q", job.ID, final)
		}
		if !o.deduped && !created.IsZero() && !started.IsZero() {
			o.queueWait, o.run = started.Sub(created), finished.Sub(started)
		}
	}
	return span(tctx, "server.result", func() error {
		res, err := l.c.JobResult(ctx, job.ID, client.ResultQuery{View: r.View})
		if err != nil {
			return err
		}
		o.served = canonView(r.View, res)
		return nil
	})
}

// closedLoop runs one client per connection; each sends the next index of
// order when its previous request completes, until order is used up or
// deadline (zero: none) passes. A nil order sends the list in its own
// order, growing it as needed, until the deadline. The outcomes come back
// in slots of the list.
func closedLoop(ctx context.Context, l *loader, clients int, order []int, deadline time.Time) []outcome {
	var next atomic.Int64
	var wg sync.WaitGroup
	sent := make([][]outcome, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)) {
				i := int(next.Add(1)) - 1
				if order != nil {
					if i >= len(order) {
						return
					}
					i = order[i]
				}
				sent[c] = append(sent[c], l.do(ctx, i, time.Time{}))
			}
		}(c)
	}
	wg.Wait()
	outs := make([]outcome, len(l.list.all()))
	for _, batch := range sent {
		for _, o := range batch {
			outs[o.index] = o
		}
	}
	return outs
}

// openLoop sends every request at its due time, each on its own goroutine;
// the transport's connection bound makes requests past it wait, and that
// wait counts in their latency.
func openLoop(ctx context.Context, l *loader) []outcome {
	reqs := l.list.all()
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, r := range reqs {
		due := t0.Add(r.Due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			lag := time.Since(due)
			o := l.do(ctx, i, due)
			o.lag = lag
			outs[i] = o
		}(i, due)
	}
	wg.Wait()
	return outs
}

// loadResult aggregates one measured load.
type loadResult struct {
	// outs has one slot per request of the list; slots never sent have
	// done == false. Under restarts the last cycle's outcomes are kept and
	// the earlier cycles are folded into the counters below. warm holds the
	// untimed warm-up's outcomes the same way.
	outs, warm []outcome
	// served maps request keys to canonical responses, across cycles.
	served map[string]string
	// conflicts lists keys answered differently by two responses.
	conflicts []string
	// elapsed is the measured load time, cpu the daemon's CPU time and
	// host the machine's CPU time split during it (restarts: all summed
	// over cycles).
	elapsed, cpu time.Duration
	host         hostTicks
	latMs, lagMs []float64
	attempted    int
	failed       int
	firstErr     error
	// uncached counts successful answers that ran the flow under
	// restarts, where the store must answer everything.
	uncached int
	// lastCPU is the CPU time of the daemon whose outcomes outs holds.
	lastCPU time.Duration
	rss     []float64
	// rssLate counts daemons whose load ended before the request count
	// their peak RSS was to be read after.
	rssLate int
	setups  []startup
	// counters sums the daemons' /metrics counters (traced runs only).
	counters map[string]int64
}

// fold adds one load's outcomes to the result.
func (res *loadResult) fold(reqs []Request, outs []outcome, restarts bool) {
	for i := range outs {
		o := &outs[i]
		if !o.done {
			continue
		}
		res.attempted++
		if o.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = o.err
			}
			continue
		}
		res.latMs = append(res.latMs, ms(o.latency))
		if o.lag != 0 {
			res.lagMs = append(res.lagMs, ms(o.lag))
		}
		if restarts && !o.cached {
			res.uncached++
		}
		k := reqs[i].Key()
		if prev, ok := res.served[k]; !ok {
			res.served[k] = o.served
		} else if prev != o.served {
			res.conflicts = append(res.conflicts, k)
		}
	}
	res.outs = outs
}

// env is the run's environment: the daemon binary and a work directory.
type env struct {
	bin   string
	work  string
	conns int
	dirs  int
}

// freshDir returns a new empty directory under the work directory.
func (e *env) freshDir() (string, error) {
	e.dirs++
	dir := filepath.Join(e.work, fmt.Sprintf("store-%d", e.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// fillStore has a daemon compute every request of reqs once, so their
// results persist in a new store, and returns the store's directory.
func (e *env) fillStore(ctx context.Context, reqs []Request) (string, error) {
	dir, err := e.freshDir()
	if err != nil {
		return "", err
	}
	d, err := startDaemon(ctx, e.bin, dir)
	if err != nil {
		return "", err
	}
	defer d.stop()
	c, tr := newClient(d.url, e.conns)
	defer tr.CloseIdleConnections()
	outs := closedLoop(ctx, &loader{c: c, list: &requestList{reqs: reqs}}, e.conns, seq(len(reqs)), time.Time{})
	for i := range outs {
		if outs[i].err != nil {
			return "", fmt.Errorf("filling the store: %w", outs[i].err)
		}
	}
	return dir, ctx.Err()
}

// storeDir returns the store a daemon opens: the shared filled store, or
// a fresh empty directory (fresh is true) when store is "". Reads leave a
// filled store's entries unchanged but for their mtimes, so every daemon
// over it starts from the same state.
func (e *env) storeDir(store string) (dir string, fresh bool, err error) {
	if store != "" {
		return store, false, nil
	}
	dir, err = e.freshDir()
	return dir, true, err
}

// probeSetup starts and stops a daemon n times over store (see storeDir),
// returning each start.
func (e *env) probeSetup(ctx context.Context, store string, n int) ([]startup, error) {
	var out []startup
	for i := 0; i < n; i++ {
		dir, fresh, err := e.storeDir(store)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, e.bin, dir)
		if err != nil {
			return nil, err
		}
		d.stop()
		out = append(out, d.setup)
		if fresh {
			os.RemoveAll(dir)
		}
	}
	return out, nil
}

// runLoad measures one load of w over list. A plain workload runs one
// daemon for seconds; a restarts workload replays the whole list in
// cycles, each with a fresh daemon over store, until seconds have passed.
func (e *env) runLoad(ctx context.Context, w *workload, list *requestList, store string, seed int64, seconds float64, traced bool) (*loadResult, error) {
	res := &loadResult{served: make(map[string]string)}
	if traced {
		res.counters = make(map[string]int64)
	}
	budget := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	for cycle := 0; cycle == 0 || (w.restarts && time.Since(t0) < budget); cycle++ {
		dir, fresh, err := e.storeDir(store)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, e.bin, dir)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d.setup)
		c, tr := newClient(d.url, e.conns)
		if w.warm {
			if res.warm, err = warmUp(ctx, c, list.all(), e.conns, traced); err != nil {
				d.stop()
				return nil, err
			}
		}
		l := &loader{c: c, list: list, traced: traced, d: d, rssAfter: int64(w.rssRate * seconds)}
		cpu0, err := d.cpuTime()
		if err != nil {
			d.stop()
			return nil, err
		}
		host0, err := readHostTicks()
		if err != nil {
			d.stop()
			return nil, err
		}
		start := time.Now()
		var outs []outcome
		switch {
		case w.open:
			outs = openLoop(ctx, l)
		case w.restarts:
			order := rand.New(rand.NewSource(subSeed(seed, "store-warm-cycle", cycle, 0))).Perm(len(list.all()))
			outs = closedLoop(ctx, l, e.conns, order, time.Time{})
		default:
			outs = closedLoop(ctx, l, e.conns, nil, start.Add(budget))
		}
		res.elapsed += time.Since(start)
		cpu1, err := d.cpuTime()
		if err != nil {
			d.stop()
			return nil, err
		}
		host1, err := readHostTicks()
		if err != nil {
			d.stop()
			return nil, err
		}
		res.cpu += cpu1 - cpu0
		res.host = res.host.add(host0, host1)
		if traced {
			m, err := c.Metrics(ctx)
			if err != nil {
				d.stop()
				return nil, err
			}
			for k, v := range m {
				res.counters[k] += v
			}
		}
		if l.endRSS() {
			res.rssLate++
		}
		tr.CloseIdleConnections()
		cpu := d.stop()
		if fresh {
			os.RemoveAll(dir)
		}
		if l.rssErr != nil {
			return nil, l.rssErr
		}
		res.lastCPU = cpu
		res.rss = append(res.rss, l.rss)
		res.fold(list.all(), outs, w.restarts)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// each calls f on every sent request of the last daemon's life, the
// warm-up's first, with its index in the request list.
func (res *loadResult) each(f func(i int, o *outcome)) {
	for _, outs := range [][]outcome{res.warm, res.outs} {
		for i := range outs {
			if outs[i].done {
				f(i, &outs[i])
			}
		}
	}
}

// warmUp sends the first occurrence of every distinct request of reqs and
// returns the outcomes, in slots of the request list.
func warmUp(ctx context.Context, c *client.Client, reqs []Request, conns int, traced bool) ([]outcome, error) {
	seen := make(map[string]bool)
	var first []int
	for i, r := range reqs {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			first = append(first, i)
		}
	}
	outs := closedLoop(ctx, &loader{c: c, list: &requestList{reqs: reqs}, traced: traced}, conns, first, time.Time{})
	for _, i := range first {
		if outs[i].err != nil {
			return nil, fmt.Errorf("warm-up: %w", outs[i].err)
		}
	}
	return outs, ctx.Err()
}

// seq returns 0..n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// canonSynth is the canonical form of a synthesize answer.
func canonSynth(row client.Row, vhdl, verilog string) string {
	// Only a NaN fails to marshal; a served answer cannot hold one (it came
	// as JSON), so a library NaN shows as a mismatch.
	b, _ := json.Marshal(struct {
		Row           client.Row
		VHDL, Verilog string
	}{row, vhdl, verilog})
	return string(b)
}

// pointView is the result-view projection of one sweep point; ElapsedNs is
// left out because it is a timing, not a result.
type pointView struct {
	Index int
	Row   *client.Row
	Err   string
}

// canonView is the canonical form of a served result view.
func canonView(view string, res *client.Result) string {
	switch view {
	case "table":
		return res.Table
	case "best":
		if res.Best == nil {
			return canonPoints(nil)
		}
		return canonPoints([]pointView{{res.Best.Index, res.Best.Row, res.Best.Err}})
	}
	ps := make([]pointView, 0, len(res.Pareto))
	for _, p := range res.Pareto {
		ps = append(ps, pointView{p.Index, p.Row, p.Err})
	}
	return canonPoints(ps)
}

// canonPoints renders points as JSON.
func canonPoints(ps []pointView) string {
	b, _ := json.Marshal(ps) // as in canonSynth, only a NaN could fail
	return string(b)
}
