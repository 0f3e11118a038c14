package server

// The server's observability wiring: the metrics registry behind
// /metrics, the span observer that turns trace spans into duration
// histograms, the HTTP middleware that opens a trace per request, and
// the trace-serving endpoints.
//
// Every legacy series keeps the exact name and line format of the
// pre-registry /metrics handler (existing scrapers grep lines like
// "pmsynthd_cache_misses 1"); the registry adds # HELP/# TYPE headers
// and duration histograms on top.

import (
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// serverMetrics owns the registry and the handles the hot paths write to.
// Pre-existing atomic counters are exported through render-time callbacks
// so the scrape stays O(1) and the counting code is untouched.
type serverMetrics struct {
	reg *telemetry.Registry

	httpLatency  telemetry.HistogramVec // per-route request latency
	queueWait    telemetry.Histogram    // sweep admission -> worker pickup
	jobRun       telemetry.Histogram    // job Func wall clock
	passDuration telemetry.HistogramVec // per-pass pipeline time
	compile      telemetry.Histogram    // every compile
	point        telemetry.Histogram    // sweep-point time
	storeOp      telemetry.HistogramVec // disk store get/put time
}

// newServerMetrics builds the registry: every legacy pmsynthd_* series as
// a callback over the existing counters, plus the duration histograms.
func newServerMetrics(s *Server) *serverMetrics {
	r := telemetry.NewRegistry()
	m := &serverMetrics{reg: r}

	ctr := func(name, help string, fn func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	gauge := func(name, help string, fn func() int64) {
		r.GaugeFunc(name, help, func() float64 { return float64(fn()) })
	}

	// The in-memory result tier: the job manager's live jobs by key,
	// counted once per admission decision.
	ctr("pmsynthd_cache_hits", "admissions that joined a live job (sweep or synthesize)", s.joins.Load)
	ctr("pmsynthd_cache_misses", "admissions that joined no live job: store restores, new jobs and refusals", s.admits.Load)

	// Disk store. Series are emitted unconditionally (zeros when
	// persistence is disabled) so dashboards never miss them.
	storeStats := func() cache.StoreStats {
		if s.store == nil {
			return cache.StoreStats{}
		}
		return s.store.Stats()
	}
	gauge("pmsynthd_store_enabled", "1 when the persistent store is configured", func() int64 {
		if s.store != nil {
			return 1
		}
		return 0
	})
	ctr("pmsynthd_store_hits", "disk store hits", func() int64 { return storeStats().Hits })
	ctr("pmsynthd_store_misses", "disk store misses", func() int64 { return storeStats().Misses })
	ctr("pmsynthd_store_puts", "disk store successful writes", func() int64 { return storeStats().Puts })
	ctr("pmsynthd_store_put_errors", "disk store failed writes", func() int64 { return storeStats().PutErrors })
	ctr("pmsynthd_store_corrupt", "disk store entries rejected by verification", func() int64 { return storeStats().Corrupt })
	ctr("pmsynthd_store_evictions", "disk store size-bound evictions", func() int64 { return storeStats().Evictions })
	gauge("pmsynthd_store_bytes", "disk store resident bytes", func() int64 { return storeStats().Bytes })
	gauge("pmsynthd_store_entries", "disk store resident entries", func() int64 { return storeStats().Entries })

	// Cluster routing. Like the store series, these are emitted
	// unconditionally — zeros when single-node — so dashboards and the
	// metrics linter always see the same series set.
	clusterStats := func() cluster.Stats {
		if s.cluster == nil {
			return cluster.Stats{}
		}
		return s.cluster.Stats()
	}
	gauge("pmsynthd_cluster_enabled", "1 when cluster mode is configured", func() int64 {
		if s.cluster != nil {
			return 1
		}
		return 0
	})
	gauge("pmsynthd_cluster_nodes", "cluster membership size", func() int64 {
		if s.cluster == nil {
			return 0
		}
		return int64(len(s.cluster.Nodes()))
	})
	ctr("pmsynthd_cluster_proxied_submits", "submissions proxied to a node ranked ahead of this one", func() int64 { return clusterStats().ProxiedSubmits })
	ctr("pmsynthd_cluster_proxied_jobs", "job requests proxied to the node the id names", func() int64 { return clusterStats().ProxiedJobs })
	ctr("pmsynthd_cluster_fallbacks", "ranked nodes a submission skipped as unreachable or failing", func() int64 { return clusterStats().Fallbacks })
	ctr("pmsynthd_cluster_forwarded", "submissions received forwarded from peer nodes", func() int64 { return clusterStats().Forwarded })

	// Request and admission counters.
	ctr("pmsynthd_synthesize_requests", "POST /v1/synthesize requests", s.synthRequests.Load)
	ctr("pmsynthd_sweep_requests", "POST /v1/sweep requests", s.sweepRequests.Load)
	ctr("pmsynthd_sweep_shed", "sweep and synthesize submissions shed with 429", s.sweepSheds.Load)
	ctr("pmsynthd_sweep_warm_hits", "sweep and synthesize submissions answered from the disk store", s.sweepWarmHits.Load)

	// Job manager. The running gauge reads the manager's O(1) transition
	// counter — scrapes never iterate the job table.
	ctr("pmsynthd_jobs_created", "jobs ever created", func() int64 { c, _ := s.jobs.Counters(); return c })
	ctr("pmsynthd_jobs_completed", "jobs ever completed", func() int64 { _, c := s.jobs.Counters(); return c })
	gauge("pmsynthd_jobs_running", "jobs currently running", func() int64 {
		_, running, _, _ := s.jobs.QueueStats()
		return int64(running)
	})
	gauge("pmsynthd_jobs_pending", "jobs waiting for a worker", func() int64 {
		pending, _, _, _ := s.jobs.QueueStats()
		return int64(pending)
	})
	gauge("pmsynthd_jobs_queue_capacity", "admission queue capacity", func() int64 {
		_, _, capacity, _ := s.jobs.QueueStats()
		return int64(capacity)
	})
	ctr("pmsynthd_jobs_rejected", "submissions shed with queue-full", func() int64 {
		_, _, _, rejected := s.jobs.QueueStats()
		return rejected
	})
	gauge("pmsynthd_uptime_seconds", "seconds since the server started", func() int64 {
		return int64(time.Since(s.start).Seconds())
	})
	gauge("pmsynthd_traces_retained", "traces retained in the debug ring", func() int64 {
		return int64(s.traces.Len())
	})
	registerRuntimeMetrics(r)

	// Duration histograms, fed by the middleware and the span observer.
	m.httpLatency = r.HistogramVec("pmsynthd_http_request_duration_seconds",
		"HTTP request latency by route", nil, "route")
	m.queueWait = r.Histogram("pmsynthd_job_queue_wait_seconds",
		"sweep job wait from admission to worker pickup", nil)
	m.jobRun = r.Histogram("pmsynthd_job_run_seconds",
		"sweep job run time on a worker", nil)
	m.passDuration = r.HistogramVec("pmsynthd_pass_duration_seconds",
		"pipeline pass duration by pass name", nil, "pass")
	m.compile = r.Histogram("pmsynthd_compile_seconds",
		"behavioral-source compile time", nil)
	m.point = r.Histogram("pmsynthd_sweep_point_seconds",
		"sweep-point evaluation time", nil)
	m.storeOp = r.HistogramVec("pmsynthd_store_op_seconds",
		"disk store operation time by op (get, put)", nil, "op")
	return m
}

// runtimeSeries maps each exported Go runtime counter to the
// runtime/metrics sample it reads. The runtime documents its CPU classes
// as estimates, comparable only with each other and updated at the end of
// each GC cycle: derive the GC share as gc/(total-idle), and read process
// CPU from the pmsynthd_process_cpu_* series instead.
var runtimeSeries = []struct{ name, sample, help string }{
	{"pmsynthd_go_cpu_gc_seconds", "/cpu/classes/gc/total:cpu-seconds", "estimated CPU time spent in GC (marking, assists, pauses); compare only with the other pmsynthd_go_cpu_* series"},
	{"pmsynthd_go_cpu_user_seconds", "/cpu/classes/user:cpu-seconds", "estimated CPU time running Go code outside the runtime"},
	{"pmsynthd_go_cpu_idle_seconds", "/cpu/classes/idle:cpu-seconds", "estimated CPU time available to Go but left idle"},
	{"pmsynthd_go_cpu_total_seconds", "/cpu/classes/total:cpu-seconds", "GOMAXPROCS integrated over the process's wall-clock time"},
	{"pmsynthd_go_gc_cycles", "/gc/cycles/total:gc-cycles", "completed GC cycles"},
	{"pmsynthd_go_heap_alloc_bytes", "/gc/heap/allocs:bytes", "cumulative bytes allocated on the heap"},
}

// registerRuntimeMetrics exports the Go runtime's CPU classes, GC cycle
// count and cumulative heap allocation, and the process's user and system
// CPU from getrusage, all read at scrape time.
func registerRuntimeMetrics(r *telemetry.Registry) {
	for _, rs := range runtimeSeries {
		sample := rs.sample
		r.CounterFunc(rs.name, rs.help, func() float64 {
			s := []metrics.Sample{{Name: sample}}
			metrics.Read(s)
			switch s[0].Value.Kind() {
			case metrics.KindFloat64:
				return s[0].Value.Float64()
			case metrics.KindUint64:
				return float64(s[0].Value.Uint64())
			}
			return 0 // the runtime does not support the sample
		})
	}
	rusage := func(user bool) float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		tv := ru.Stime
		if user {
			tv = ru.Utime
		}
		return float64(tv.Nano()) / 1e9
	}
	r.CounterFunc("pmsynthd_process_cpu_user_seconds", "process user CPU time (getrusage)",
		func() float64 { return rusage(true) })
	r.CounterFunc("pmsynthd_process_cpu_system_seconds", "process system CPU time (getrusage)",
		func() float64 { return rusage(false) })
}

// observeSpan feeds duration histograms from ended spans. It is the
// trace observer of every request trace, invoked synchronously on each
// Span.End — including spans past the trace's retention bound — and may
// be called from many goroutines at once (sweep workers).
func (m *serverMetrics) observeSpan(sp *telemetry.Span) {
	name := sp.Name()
	switch {
	case name == "queue-wait":
		// A shed or joined submission's wait ended without a pickup.
		if sp.Attr("shed") != "true" && sp.Attr("joined") != "true" {
			m.queueWait.Observe(sp.Duration().Seconds())
		}
	case name == "run":
		m.jobRun.Observe(sp.Duration().Seconds())
	case name == "compile":
		m.compile.Observe(sp.Duration().Seconds())
	case name == "point":
		m.point.Observe(sp.Duration().Seconds())
	case strings.HasPrefix(name, "pass:"):
		m.passDuration.With(name[len("pass:"):]).Observe(sp.Duration().Seconds())
	case name == "store.get" || name == "store.put":
		m.storeOp.With(name[len("store."):]).Observe(sp.Duration().Seconds())
	}
}

// statusRecorder captures the response status for the access log and the
// root span, passing Flush through so NDJSON event streaming keeps
// working behind the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTelemetry is the outermost HTTP middleware: it opens a trace and a
// root span per request (named by the matched route pattern, so the
// histogram label space is bounded by the route table), returns the
// trace id in X-Pmsynthd-Trace, observes the per-route latency
// histogram, and writes one structured access-log line.
//
// Traces for /metrics, /healthz and /debug/* requests still exist (the
// header and histograms work) but are not retained in the ring — a
// scraper polling every few seconds must not evict the job traces the
// ring is for.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "(unmatched)"
		if _, pattern := s.mux.Handler(r); pattern != "" {
			route = pattern
		}
		tr := telemetry.NewTrace("", telemetry.WithObserver(s.metrics.observeSpan))
		if retainTrace(route) {
			s.traces.Add(tr)
		}
		ctx := telemetry.WithTrace(r.Context(), tr)
		ctx, root := telemetry.StartSpan(ctx, route)
		w.Header().Set("X-Pmsynthd-Trace", tr.ID())
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))
		if rec.status == 0 {
			rec.status = http.StatusOK // handler never wrote: implicit 200
		}
		root.SetAttr("code", strconv.Itoa(rec.status))
		root.End()
		// The root span is the request's one clock: the trace, the route
		// histogram and the access log all read its duration.
		elapsed := root.Duration()
		s.metrics.httpLatency.With(route).Observe(elapsed.Seconds())
		logger := s.log.Info
		if route == "GET /metrics" || route == "GET /healthz" {
			logger = s.log.Debug // scrapes and probes are noise at info
		}
		logger("http request",
			"method", r.Method, "path", r.URL.Path, "route", route,
			"code", rec.status, "elapsed", elapsed, "trace", tr.ID())
	})
}

// retainTrace decides whether a route's traces go into the debug ring.
func retainTrace(route string) bool {
	return route != "GET /metrics" && route != "GET /healthz" &&
		!strings.HasPrefix(route, "GET /debug/")
}

// handleJobTrace serves the span forest of the trace that admitted (and,
// for computed sweeps, ran) a job. 404s: unknown job, a job admitted
// with tracing off, or a trace already evicted from the bounded ring.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	id := j.Snapshot().Trace
	if id == "" {
		writeError(w, http.StatusNotFound, "job %q has no recorded trace", j.ID())
		return
	}
	tr, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %q is no longer retained", id)
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// handleDebugTraces serves the most recent retained traces, newest
// first. ?n= bounds the count (default 20).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q: want a positive integer", q)
			return
		}
		n = v
	}
	traces := s.traces.Recent(n)
	out := make([]telemetry.Snapshot, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}
