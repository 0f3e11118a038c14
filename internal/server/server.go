package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/cache"
	"repro/internal/cdfg"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Config parameterizes the server.
type Config struct {
	// JobWorkers is the fixed pool of workers running jobs — sweeps and
	// synthesize requests alike; <= 0 means 2.
	JobWorkers int
	// MaxPendingJobs bounds the admission queue — jobs accepted but not
	// yet running; <= 0 means 64. Submissions beyond it are shed with
	// 429 + Retry-After.
	MaxPendingJobs int
	// MaxSweepWorkers caps the client-supplied SweepRequest Workers value
	// and is the flow worker count of a request that names none; <= 0
	// means GOMAXPROCS. It never changes results (Workers is excluded from
	// the fingerprint), only how much concurrency one request can demand.
	MaxSweepWorkers int
	// JobTTL is how long finished jobs stay queryable; <= 0 means 1h.
	JobTTL time.Duration
	// MaxSweepConfigs rejects sweep submissions that would enumerate
	// more configurations than this; <= 0 means 65536. The library has
	// no such limit — this is the network-facing guard against a single
	// request sizing an allocation the process cannot survive.
	MaxSweepConfigs int
	// RetryAfter is the backpressure hint attached to shed submissions
	// (the Retry-After header on 429 responses); <= 0 means 1s.
	RetryAfter time.Duration
	// StoreDir, when non-empty, enables the disk-backed result store
	// rooted at that directory: finished sweeps (a synthesize is a
	// one-point sweep) persist across restarts and are served as warm
	// hits without recompiling. Empty disables persistence.
	StoreDir string
	// StoreMaxBytes bounds the disk store's segment files; beyond it the
	// oldest segments are deleted. <= 0 means 1 GiB.
	StoreMaxBytes int64
	// SelfURL is this node's advertised base URL (scheme://host:port).
	// Non-empty enables cluster mode: job ids carry this node's id
	// prefix, sweep and synthesize submissions are routed to the first
	// reachable node of their fingerprint's ranking, and the /v1/jobs
	// endpoints transparently proxy ids that name other nodes. Empty
	// keeps the server single-node.
	SelfURL string
	// Peers lists every cluster member's advertised base URL (listing
	// self is fine; it is deduped). Ignored without SelfURL.
	Peers []string
	// SweepHook, when non-nil, runs at the start of every computed job's
	// Func, sweeps and synthesize requests alike — on the worker
	// goroutine, with the sweep fingerprint, after admission and before
	// any point evaluates. It is the fault-injection seam: cluster tests
	// stall a job here to kill its node mid-execution.
	SweepHook func(fp string)
	// CompileHook, when non-nil, runs immediately before each compile —
	// exactly one call per compile, on the admitting goroutine, never
	// under a lock. It is the test and instrumentation seam:
	// the head-of-line regression test injects a blocking compile here
	// and the shed, warm-start and routing tests count compiles through
	// it.
	CompileHook func(source string)
	// Logger receives the structured access log and job lifecycle
	// events; nil discards them.
	Logger *slog.Logger
}

// maxBudget bounds any requested control-step budget. Schedules allocate
// per-step state, so an absurd budget is an allocation attack, not a
// plausible design; a million steps is far beyond any real circuit.
const maxBudget = 1 << 20

// Server is the pmsynthd HTTP API.
type Server struct {
	cfg     Config
	store   *cache.Store     // nil when persistence is disabled
	cluster *cluster.Cluster // nil when single-node
	jobs    *jobs.Manager
	mux     *http.ServeMux
	start   time.Time
	log     *slog.Logger
	traces  *telemetry.Ring
	metrics *serverMetrics

	synthRequests atomic.Int64
	sweepRequests atomic.Int64
	sweepSheds    atomic.Int64
	sweepWarmHits atomic.Int64
	// Admission decisions: joins of a live job, and every other one.
	joins, admits atomic.Int64
}

// New builds a server. It fails only when the configured store directory
// cannot be opened; with persistence disabled (empty StoreDir) it cannot
// fail. Call Close to stop the job manager.
func New(cfg Config) (*Server, error) {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.MaxPendingJobs <= 0 {
		cfg.MaxPendingJobs = 64
	}
	if cfg.MaxSweepConfigs <= 0 {
		cfg.MaxSweepConfigs = 65536
	}
	if cfg.MaxSweepWorkers <= 0 {
		cfg.MaxSweepWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.StoreMaxBytes <= 0 {
		cfg.StoreMaxBytes = 1 << 30
	}
	var store *cache.Store
	if cfg.StoreDir != "" {
		var err error
		store, err = cache.OpenStore(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
	}
	var clu *cluster.Cluster
	var nodeID string
	if cfg.SelfURL != "" {
		var err error
		clu, err = cluster.New(cfg.SelfURL, cfg.Peers)
		if err != nil {
			if store != nil {
				store.Close()
			}
			return nil, err
		}
		nodeID = clu.Self().ID
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		cluster: clu,
		jobs: jobs.NewManager(jobs.Config{
			Workers:    cfg.JobWorkers,
			MaxPending: cfg.MaxPendingJobs,
			TTL:        cfg.JobTTL,
			Logger:     cfg.Logger,
			Node:       nodeID,
		}),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		log:    logger,
		traces: telemetry.NewRing(0),
	}
	s.metrics = newServerMetrics(s)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	return s, nil
}

// Handler returns the root handler: the API mux behind the telemetry
// middleware (per-request traces, latency histograms, access log).
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// Close stops the job manager (canceling running jobs) and closes the
// disk store, releasing its lock on the segment it appends to.
func (s *Server) Close() {
	s.jobs.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// StoreStats exposes the disk-store counters; ok is false when
// persistence is disabled.
func (s *Server) StoreStats() (st cache.StoreStats, ok bool) {
	if s.store == nil {
		return cache.StoreStats{}, false
	}
	return s.store.Stats(), true
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeSynthesizeResult writes res as the 200 answer of POST
// /v1/synthesize: the bytes writeJSON writes for it, in two parts. The
// head, every member but the RTL, goes through the indenting encoder. Each
// RTL member follows as encoding/json quotes it, with no indenter, which
// only inserts whitespace between tokens and so leaves a quoted string as
// it is; the RTL is nearly all of an answer that carries it.
func writeSynthesizeResult(w http.ResponseWriter, res client.SynthesizeResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	members := [...]struct{ key, text string }{
		{",\n  \"vhdl\": ", res.VHDL},
		{",\n  \"verilog\": ", res.Verilog},
	}
	res.VHDL, res.Verilog = "", "" // omitempty leaves them out of the head
	tw := &trimWriter{w: w, n: len("\n}\n")}
	enc := json.NewEncoder(tw)
	enc.SetIndent("", "  ")
	if enc.Encode(res) != nil {
		return // writeJSON writes nothing either
	}
	// With the status sent, a failed write below has no one to report
	// to: the client is gone, and the writes after it fail too.
	enc.SetIndent("", "")
	tw.n = len("\n")
	for _, m := range members {
		if m.text != "" {
			_, _ = io.WriteString(w, m.key)
			_ = enc.Encode(m.text)
		}
	}
	_, _ = io.WriteString(w, "\n}\n")
}

// trimWriter writes all but the last n bytes of each Write: the end with
// which json.Encoder closes a value, where the answer goes on.
type trimWriter struct {
	w io.Writer
	n int
}

func (t *trimWriter) Write(p []byte) (int, error) {
	if _, err := t.w.Write(p[:len(p)-t.n]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a request body, so one request cannot make the daemon
// hold or compile an input of any size. The longest source the repository
// sends in its workloads is under 5 KB.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a JSON request body, answering 413 to a body
// longer than maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, client.Health{
		Status: "ok",
		Uptime: time.Since(s.start).Round(time.Millisecond).String(),
		Time:   time.Now().UTC(),
	})
}

// handleMetrics renders the whole registry as Prometheus text. Every
// series is a callback over the live counters or a histogram fed by the
// hot paths, so a scrape is O(registry size) — it never iterates the job
// table or any other per-entry state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.Render(w)
}

// handleSynthesize answers one configuration synchronously as a one-point
// sweep: the same routing, admission pipeline, job, stored shape and
// spans as POST /v1/sweep, after which the handler waits for the job and
// renders its point. N concurrent identical requests join one job.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.synthRequests.Add(1)
	var req client.SynthesizeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source")
		return
	}
	opt, err := toOptions(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad options: %v", err)
		return
	}
	var emit rtl
	for _, e := range req.Emit {
		switch e {
		case "vhdl":
			emit.vhdl = true
		case "verilog":
			emit.verilog = true
		default:
			writeError(w, http.StatusBadRequest, "unknown emit %q (valid: vhdl, verilog)", e)
			return
		}
	}
	spec := pmsynth.SweepSpec{
		Budgets:   []int{opt.Budget},
		IIs:       []int{opt.II},
		Orders:    []pmsynth.Order{opt.Order},
		Resources: []map[cdfg.Class]int{opt.Resources},
		Workers:   1,
	}
	if s.routed(w, r, req.Source, spec, req) {
		return
	}
	out := s.admitSweep(r.Context(), req.Source, spec, emit)
	if out.status >= 300 {
		s.writeSweepOutcome(w, out)
		return
	}
	if err := waitJob(r.Context(), out.job); err != nil {
		writeError(w, http.StatusServiceUnavailable, "synthesize: %v", err)
		return
	}
	val, jobErr, _ := out.job.Result()
	fs, _ := val.(*finishedSweep)
	switch {
	case fs == nil && errors.Is(jobErr, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "synthesize: job %s was canceled", out.job.ID())
	case fs == nil:
		writeError(w, http.StatusUnprocessableEntity, "%v", jobErr)
	case fs.sr.Points[0].Err != nil:
		writeError(w, http.StatusUnprocessableEntity, "synthesize: %v", fs.sr.Points[0].Err)
	default:
		writeSynthesizeResult(w, client.SynthesizeResult{
			Fingerprint: pmsynth.Fingerprint(req.Source, opt),
			Cached:      out.status == http.StatusOK,
			Trace:       telemetry.TraceFrom(r.Context()).ID(),
			Row:         client.Row(fs.sr.Points[0].Row),
			VHDL:        fs.vhdl,
			Verilog:     fs.verilog,
		})
	}
}

// waitJob blocks until j is terminal, woken by its event notifications,
// or until ctx ends. It asks for no events, only the notification.
func waitJob(ctx context.Context, j *jobs.Job) error {
	for {
		_, more, done := j.EventsSince(math.MaxInt64)
		if done {
			return nil
		}
		select {
		case <-more:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// handleSweep validates a sweep submission, routes it along the
// fingerprint's node ranking when clustered, and hands it to the
// admission pipeline. The client-supplied Workers value is clamped to
// the server cap — Workers never affects results (it is excluded from
// the fingerprint), so the clamp is invisible except in how much
// concurrency one request may demand from the flow pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.sweepRequests.Add(1)
	var req client.SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source")
		return
	}
	spec, err := toSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	s.clampWorkers(&spec)
	if s.routed(w, r, req.Source, spec, req) {
		return
	}
	s.writeSweepOutcome(w, s.admitSweep(r.Context(), req.Source, spec, rtl{}))
}

// routed walks cluster.Ranked for a submission: body is proxied to each
// node ranked ahead of this one, stopping at the first that answers, and
// routed reports true once one did. It reports false — execute locally —
// when the walk reaches this node's own entry, when single-node, and for
// submissions that arrive with the forward header, which are never
// re-forwarded, so a routing disagreement costs one extra hop, not a
// loop. Every node that finds the same ranked nodes unreachable (or
// failing with 5xx) therefore sends the submission to the same executor,
// whose job manager collapses racing submissions onto one job.
func (s *Server) routed(w http.ResponseWriter, r *http.Request, source string, spec pmsynth.SweepSpec, body interface{}) bool {
	if s.cluster == nil {
		return false
	}
	if r.Header.Get(cluster.ForwardHeader) != "" {
		s.cluster.CountForwarded()
		return false
	}
	for _, node := range s.cluster.Ranked(pmsynth.SweepFingerprint(source, spec)) {
		if node.ID == s.cluster.Self().ID {
			break
		}
		blob, err := json.Marshal(body)
		if err == nil {
			err = s.cluster.ProxySubmit(w, r, node, blob)
		}
		if err == nil {
			return true
		}
		s.log.Warn("submission proxy failed; trying the next ranked node",
			"node", node.ID, "url", node.URL, "err", err)
		s.cluster.CountFallback()
	}
	return false
}

// clampWorkers caps the client's worker count at MaxSweepWorkers, which
// is also the count of a request that names none: the flow library would
// expand 0 to GOMAXPROCS, sailing past a smaller cap.
func (s *Server) clampWorkers(spec *pmsynth.SweepSpec) {
	if spec.Workers <= 0 || spec.Workers > s.cfg.MaxSweepWorkers {
		spec.Workers = s.cfg.MaxSweepWorkers
	}
}

// sweepOutcome is the admission pipeline's decision for one submission:
// an HTTP status plus either the created/joined job or an error message.
// Factoring the decision out of the HTTP handler is what lets POST
// /v1/synthesize wait on the job that POST /v1/sweep would only report.
type sweepOutcome struct {
	status int             // 200 deduped/warm, 202 created, 422/429/503 refused
	resp   client.SweepJob // valid when status < 300
	job    *jobs.Job       // valid when status < 300
	errMsg string          // valid when status >= 300
}

// writeSweepOutcome renders one admission outcome as an HTTP response,
// attaching the Retry-After hint to sheds.
func (s *Server) writeSweepOutcome(w http.ResponseWriter, out sweepOutcome) {
	if out.status >= 300 {
		if out.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, out.status, "%s", out.errMsg)
		return
	}
	writeJSON(w, out.status, out.resp)
}

// retryAfterSeconds is the configured backpressure hint in whole seconds,
// at least one.
func (s *Server) retryAfterSeconds() int {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// rtl is the set of RTL artifacts a submission's job emits; sweeps emit
// none.
type rtl struct{ vhdl, verilog bool }

// key extends a sweep fingerprint into the dedup and store key:
// the artifacts are part of the finished value, so requests for
// different artifact sets must not alias. It adds nothing when nothing is
// emitted, so a plain synthesize and the identical one-point sweep share
// one job.
func (e rtl) key(fp string) string {
	if e == (rtl{}) {
		return fp
	}
	return fmt.Sprintf("%s|vhdl=%t|verilog=%t", fp, e.vhdl, e.verilog)
}

// admitSweep is the admission pipeline of every sweep and synthesize
// request; the two handlers are its only callers, each after routed.
// Its structure is the tentpole invariant of the serving layer:
// client-controlled work never runs under a lock. The job manager owns
// the one table of jobs by key, and takes its mutex only inside Lookup,
// Submit and SubmitDone.
//
//  1. Lookup: a live job with this key answers the submission
//     immediately.
//  2. The disk store lookup — a completed table persisted by an earlier
//     run (possibly an earlier process over the same store directory) is
//     restored as an already-succeeded job with SubmitDone, skipping
//     compile and evaluation entirely.
//  3. The cheap size guard, then Compile and Enumerate, both on
//     untrusted input and potentially slow. Nothing caches the design:
//     identical submissions that race through this stage each compile,
//     and the job Func is the design's only holder, so a finished job
//     pins its decoded table alone.
//  4. Submit: join a racing identical submission that committed while
//     this one was compiling, or commit the new job under the key. The
//     job manager is thus the serving layer's one in-memory tier and its
//     one dedup point.
//
// Job submission itself is non-blocking: when the bounded admission queue
// is full the submission is shed with 429 and a Retry-After hint rather
// than queueing unboundedly. A succeeded job's table is persisted to the
// disk store, so the key stays answerable after the job is TTL-collected
// — and after the process restarts. Each call counts once in
// pmsynthd_cache_hits/_misses: a join is a hit, any other outcome a miss.
//
// When ctx carries a telemetry trace (the middleware always attaches
// one), the admission records a "queue-wait" span from submission to
// worker pickup and the job itself continues the same trace: its "run"
// span, the per-point and per-pass spans underneath, all parent back to
// the submitting request's root span, and the job snapshot carries the
// trace id for GET /v1/jobs/{id}/trace.
func (s *Server) admitSweep(ctx context.Context, source string, spec pmsynth.SweepSpec, emit rtl) (out sweepOutcome) {
	defer func() {
		if out.resp.Deduped {
			s.joins.Add(1)
		} else {
			s.admits.Add(1)
		}
	}()
	fp := pmsynth.SweepFingerprint(source, spec)
	key := emit.key(fp)

	if j, ok := s.jobs.Lookup(key); ok {
		return joinedOutcome(j, fp)
	}

	// Disk tier: a sweep computed before — by this process or a previous
	// one over the same store directory — answers without compiling. The
	// restored table becomes an already-succeeded job so every /v1/jobs
	// endpoint works on it, and identical submissions join it for as
	// long as it lives.
	if warm, ok := s.warmSweep(ctx, key, fp); ok {
		return warm
	}

	// Size the sweep cheaply — before Enumerate materializes anything —
	// so one absurd request cannot size an allocation the process dies
	// under. This runs before the early shed so a structurally invalid
	// spec always gets its definitive 422, never a 429 inviting retries
	// of a request that can never be accepted.
	if err := s.checkSweepSize(spec); err != nil {
		return sweepOutcome{status: http.StatusUnprocessableEntity, errMsg: err.Error()}
	}

	// Advisory early shed: with the queue already full, a new job is
	// almost certainly doomed, so don't burn compile/enumerate work on
	// it — a saturated server should do minimal per-request work, not
	// maximal. Dedup (above) has already had its chance to answer, and
	// the authoritative check remains Submit's, which closes the race
	// with a queue that drains in the meantime.
	if pending, _, capacity, _ := s.jobs.QueueStats(); pending >= capacity {
		return s.shedOutcome(jobs.ErrQueueFull)
	}

	_, csp := telemetry.StartSpan(ctx, "compile")
	if hook := s.cfg.CompileHook; hook != nil {
		hook(source)
	}
	design, err := pmsynth.Compile(source)
	if err != nil {
		csp.SetAttr("err", err.Error())
	}
	csp.End()
	if err != nil {
		return sweepOutcome{status: http.StatusUnprocessableEntity, errMsg: fmt.Sprintf("compile: %v", err)}
	}
	// Validate the spec against the design before committing a job.
	opts, err := spec.Enumerate(design)
	if err != nil {
		return sweepOutcome{status: http.StatusUnprocessableEntity, errMsg: fmt.Sprintf("enumerate: %v", err)}
	}
	total := len(opts)

	tr := telemetry.TraceFrom(ctx)
	rootSp := telemetry.SpanFrom(ctx)

	// The queue-wait span opens before Submit, because a worker may pick
	// the job up before Submit returns; the job Func's first action ends
	// it. A submission that is shed or joins a racing identical one ends
	// it at once, marked so the wait histogram only sees real pickups.
	_, qsp := telemetry.StartSpan(ctx, "queue-wait")
	job, joined, err := s.jobs.Submit(key, "sweep "+design.Graph.Name, tr.ID(), total,
		func(jobCtx context.Context, progress func(done, total int)) (interface{}, error) {
			qsp.End()
			if hook := s.cfg.SweepHook; hook != nil {
				hook(fp)
			}
			// The job continues the submitting request's trace: jobCtx
			// carries the job's cancellation, re-dressed with the trace
			// and re-parented under the request's root span.
			jctx := telemetry.WithSpan(telemetry.WithTrace(jobCtx, tr), rootSp)
			jctx, runSp := telemetry.StartSpan(jctx, "run")
			defer runSp.End()
			sr, err := pmsynth.SweepContextProgress(jctx, design, spec, pmsynth.SweepProgress(progress))
			if err != nil {
				return nil, err
			}
			// The job holds exactly what a restore of it would: the
			// table decoded from its stored bytes, with no per-point
			// synthesis artifacts and no compiled design to pin for the
			// job TTL.
			blob, err := encodeSweepResult(sr, emit)
			if err != nil {
				return nil, err
			}
			if s.store != nil {
				s.store.PutCtx(jctx, sweepStoreKey(key), blob) // advisory: a failed Put costs a recompute
			}
			return decodeSweepResult(blob)
		})
	if err != nil {
		qsp.SetAttr("shed", "true")
		qsp.End()
		return s.shedOutcome(err)
	}
	if joined {
		// An identical submission committed while this one was
		// compiling; this submission's design is dropped.
		qsp.SetAttr("joined", "true")
		qsp.End()
		return joinedOutcome(job, fp)
	}
	return sweepOutcome{status: http.StatusAccepted, job: job, resp: client.SweepJob{
		ID: job.ID(), State: job.Snapshot().State, Total: total,
		Fingerprint: fp, Workers: spec.Workers, Trace: tr.ID(),
	}}
}

// sweepStoreKey namespaces sweep tables in the shared disk store.
func sweepStoreKey(key string) string { return "sweep|" + key }

// warmSweep tries to answer a submission from the disk store. On a hit
// the restored table is registered as an already-succeeded job (no queue
// slot, no worker) under the key, so identical submissions join it; two
// racing warm hits converge on one job inside SubmitDone.
func (s *Server) warmSweep(ctx context.Context, key, fp string) (sweepOutcome, bool) {
	if s.store == nil {
		return sweepOutcome{}, false
	}
	blob, ok := s.store.GetCtx(ctx, sweepStoreKey(key))
	if !ok {
		return sweepOutcome{}, false
	}
	fs, err := decodeSweepResult(blob)
	if err != nil {
		// Format drift reads as a miss; the entry is overwritten when the
		// recomputed sweep succeeds.
		return sweepOutcome{}, false
	}
	trace := telemetry.TraceFrom(ctx).ID()
	total := len(fs.sr.Points)
	job, joined, err := s.jobs.SubmitDone(key, "sweep "+fs.sr.Design.Graph.Name, trace, total, fs)
	if err != nil {
		return s.shedOutcome(err), true
	}
	if joined {
		// A racing identical submission (warm or computed) committed
		// first; join its job.
		return joinedOutcome(job, fp), true
	}
	s.sweepWarmHits.Add(1)
	return sweepOutcome{status: http.StatusOK, job: job, resp: client.SweepJob{
		ID: job.ID(), State: client.StateSucceeded, Total: total,
		Fingerprint: fp, Cached: true, Trace: trace,
	}}, true
}

// shedOutcome converts a job-manager refusal into its backpressure
// outcome: 429 + Retry-After when the admission queue is full, 503 when
// the manager is shutting down.
func (s *Server) shedOutcome(err error) sweepOutcome {
	if errors.Is(err, jobs.ErrClosed) {
		return sweepOutcome{status: http.StatusServiceUnavailable, errMsg: "server is shutting down"}
	}
	s.sweepSheds.Add(1)
	// Only the static capacity goes in the body: re-reading the live
	// pending count here could report a queue that drained after the
	// rejection, a self-contradictory diagnostic.
	_, _, capacity, _ := s.jobs.QueueStats()
	return sweepOutcome{
		status: http.StatusTooManyRequests,
		errMsg: fmt.Sprintf("sweep admission queue is full (capacity %d); retry after %ds",
			capacity, s.retryAfterSeconds()),
	}
}

// joinedOutcome answers a submission with the live job that already
// covers its key.
func joinedOutcome(j *jobs.Job, fp string) sweepOutcome {
	info := j.Snapshot()
	return sweepOutcome{status: http.StatusOK, job: j, resp: client.SweepJob{
		ID: info.ID, State: info.State, Total: info.Total,
		Fingerprint: fp, Deduped: true, Trace: info.Trace,
	}}
}

// checkSweepSize bounds a sweep submission without enumerating it: the
// budget values and the projected configuration count must stay under the
// server limits. Malformed ranges pass through — Enumerate reports them
// with its own error.
func (s *Server) checkSweepSize(spec pmsynth.SweepSpec) error {
	var budgets int64
	switch {
	case spec.Budgets != nil:
		budgets = int64(len(spec.Budgets))
		for _, b := range spec.Budgets {
			if b > maxBudget {
				return fmt.Errorf("budget %d exceeds the server limit %d", b, maxBudget)
			}
		}
	case spec.BudgetMin == 0 && spec.BudgetMax == 0:
		budgets = 1 // critical path only
	case spec.BudgetMin >= 1 && spec.BudgetMax >= spec.BudgetMin:
		if spec.BudgetMax > maxBudget {
			return fmt.Errorf("budget %d exceeds the server limit %d", spec.BudgetMax, maxBudget)
		}
		budgets = int64(spec.BudgetMax) - int64(spec.BudgetMin) + 1
	default:
		return nil // malformed range: Enumerate's error is clearer
	}
	axis := func(n int) int64 {
		if n == 0 {
			return 1
		}
		return int64(n)
	}
	count := budgets
	limit := int64(s.cfg.MaxSweepConfigs)
	for _, n := range []int{len(spec.IIs), len(spec.Orders), len(spec.Resources)} {
		count *= axis(n)
		if count > limit {
			break // already over; avoid pointless overflow risk
		}
	}
	if count > limit {
		return fmt.Errorf("sweep would enumerate %d configurations, over the server limit %d", count, limit)
	}
	return nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

// job resolves the {id} path value, writing a 404 on miss. In cluster
// mode an id carrying another node's prefix is answered by transparent
// proxy — the entire request (status, result views, cancel, the NDJSON
// event stream) relays to the owning node — and ok is false because the
// response has already been written.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	if s.cluster != nil {
		if nodeID, _, routable := cluster.SplitID(id); routable && nodeID != s.cluster.Self().ID {
			s.proxyJobRequest(w, r, nodeID)
			return nil, false
		}
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

// proxyJobRequest relays a job-scoped request to the node its id names.
// Requests that already crossed the cluster once (forward header) are
// never proxied again — a stale or wrong prefix 404s after one hop.
func (s *Server) proxyJobRequest(w http.ResponseWriter, r *http.Request, nodeID string) {
	id := r.PathValue("id")
	node, ok := s.cluster.Lookup(nodeID)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q: unknown node %q", id, nodeID)
		return
	}
	if r.Header.Get(cluster.ForwardHeader) != "" {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if err := s.cluster.ProxyJob(w, r, node); err != nil {
		s.log.Warn("job proxy failed", "node", nodeID, "url", node.URL, "err", err)
		writeError(w, http.StatusBadGateway, "job %q lives on node %s, which is unreachable", id, nodeID)
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.jobs.Cancel(j.ID()) {
		writeError(w, http.StatusConflict, "job %q is already finished", j.ID())
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobEvents streams the retained event log as NDJSON, one event per
// line, live until the job finishes or the client disconnects. ?from=N
// resumes after sequence number N. Progress ticks older than the bounded
// tail are coalesced away — Done is a high-water mark, so the stream is
// monotonic regardless; sequence numbers may skip where ticks were
// dropped.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	var seq int64
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.ParseInt(from, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q: want a non-negative sequence number", from)
			return
		}
		seq = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		events, more, done := j.EventsSince(seq)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
			seq = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobResult serves the result views of any job, synthesize jobs
// included: ?view=best (default, with ?objective=power|area|steps),
// ?view=pareto, ?view=table.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	info := j.Snapshot()
	val, jobErr, done := j.Result()
	if !done {
		writeError(w, http.StatusConflict, "job %q is %s; result not ready", info.ID, info.State)
		return
	}
	fs, ok := val.(*finishedSweep)
	if jobErr != nil && fs == nil {
		writeError(w, http.StatusConflict, "job %q %s: %v", info.ID, info.State, jobErr)
		return
	}
	if !ok || fs == nil {
		writeError(w, http.StatusInternalServerError, "job %q holds no sweep result", info.ID)
		return
	}
	sr := fs.sr

	view := r.URL.Query().Get("view")
	if view == "" {
		view = "best"
	}
	resp := client.Result{ID: info.ID, State: info.State, View: view}
	switch view {
	case "best":
		obj, err := parseObjective(r.URL.Query().Get("objective"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if best := sr.Best(obj); best != nil {
			p := toPoint(pointIndex(sr, best), best)
			resp.Best = &p
		}
	case "pareto":
		resp.Pareto = []client.Point{} // explicit empty list over null
		for _, p := range sr.Pareto() {
			resp.Pareto = append(resp.Pareto, toPoint(pointIndex(sr, p), p))
		}
	case "table":
		resp.Table = sr.Table()
	default:
		writeError(w, http.StatusBadRequest, "unknown view %q (valid: best, pareto, table)", view)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// objectives maps wire names to sweep objectives.
var objectives = map[string]pmsynth.Objective{
	"":      pmsynth.MaxPowerReduction,
	"power": pmsynth.MaxPowerReduction,
	"area":  pmsynth.MinAreaIncrease,
	"steps": pmsynth.MinSteps,
}

// parseObjective resolves a wire objective name.
func parseObjective(name string) (pmsynth.Objective, error) {
	if obj, ok := objectives[name]; ok {
		return obj, nil
	}
	valid := make([]string, 0, len(objectives))
	for n := range objectives {
		if n != "" {
			valid = append(valid, n)
		}
	}
	sort.Strings(valid)
	return nil, fmt.Errorf("unknown objective %q (valid: %v)", name, valid)
}

// pointIndex recovers a point's enumeration index from its address.
func pointIndex(sr *pmsynth.SweepResult, p *pmsynth.SweepPoint) int {
	for i := range sr.Points {
		if &sr.Points[i] == p {
			return i
		}
	}
	return -1
}
