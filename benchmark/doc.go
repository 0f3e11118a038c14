// Command pmbench is the repository's benchmark of pmsynthd: four
// workloads measured end to end, a traced mode that splits the time by
// layer, and a gate that checks the measured answers against the library.
// It is a module of its own (go.mod here) so that it builds from the
// sources of any checkout; cmd/pmbench, the older sweep-only benchmark
// behind BENCH_sweep.json and the CI bench gate, is a separate command.
//
// # Usage
//
// From the repository root:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds 15 --trace 0|1
//
// run.sh builds cmd/pmsynthd and this command under .bench_build/ (the Go
// build cache included; build time is not measured), then runs one
// workload. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics (name to value and unit).
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans are written to
// .bench_build/pmbench/trace-NAME-N.json (-out overrides). A readable
// report goes to standard error. Exit status: 0 for a correct run, 1 when
// an answer differs from the library or the run fails, 2 for bad usage or
// an invalid run, which prints no result. -digests prints inputs.json.
// BENCHMARK.json at the root lists the workloads and the metrics with
// their bounds.
//
// The unit tests run with `go test` in this directory; TestSmoke builds
// pmsynthd and runs every workload for 2 seconds through the same
// invalid-run rules and correctness gate as a full run, plus one traced
// run, and -short skips it. The repository's root `go test ./...` does not
// enter this module.
//
// # Rules
//
// The program under test is the real daemon, driven only through its
// deployment flags and public surfaces. Every load starts a fresh
// pmsynthd with just -addr and -store-dir, so process-wide caches start
// cold and no reset hook is needed. Load comes from this one process
// through the client SDK with retries off (WithRetries(0, 0): a 429 counts
// as failed, never slept through) over at most one connection per CPU.
// Inputs are generated here from the seed with internal/gen and
// internal/bench; the daemon sees only request bodies. The same seed gives
// the same requests and send times. inputs.json records the digest of each
// workload's list for seed 1; a run whose generator no longer reproduces
// it exits 2, because its numbers would not compare with earlier ones.
//
// # Workloads
//
// sweep-control — closed loop, one client per CPU. Each request is a
// fresh generated design (20 statements, mux trees of fan-in up to 3)
// swept over budgets cp..cp+3: POST /v1/sweep, the job's event stream to
// its end, then view=table. Designs with more than 26 if-expressions are
// skipped at generation, so no design has more than 26 distinct selects:
// power.AnalyzeExact always enumerates exactly, and core.Schedule's
// per-mux passes and the exact activity analysis — the paper's mechanism —
// do most of the work. Past 26 conditionals one design can cost hundreds
// of times another, and runs with different seeds stop agreeing. 50-250
// requests/s on 2 vCPUs, depending on how much CPU the hypervisor gives.
//
// sweep-datapath — the same loop over fresh conditional-free datapaths
// (150 statements, no muxes). There is nothing to gate, so compile, the
// baseline schedule, binding and controller construction carry the work.
// It bypasses sweep-control's mechanisms: a change to activity analysis
// or mux ordering should leave it unchanged. 65-200 requests/s.
//
// Both lists are endless: the head is built before the load, and a client
// that runs past it builds the next design itself (about 0.5 and 1.5 ms)
// before starting its latency clock, so a faster daemon never runs out of
// fresh inputs.
//
// serve-interactive — open loop: Poisson arrivals at 150 requests/s over
// 64 small designs (the paper's four circuits, absdiff, diffeq, ewf,
// decode and 56 generated ones) drawn Zipf(1.1). 75% are POST
// /v1/synthesize at budget cp..cp+2, one in five emitting VHDL or
// Verilog; 25% are sweeps over 2 or 3 budgets followed by view best,
// pareto or table. Every distinct request is sent once, untimed, before
// the load, so the load is the steady state of independent designers
// iterating: every answer comes from a memory cache or a live job, and
// HTTP, JSON, admission, jobs and the cache tiers do the work. Latency is
// timed from each request's due time, so a late send counts against it;
// the generator's own lag p99 is 1-2 ms on a quiet host. The rate is
// fixed: there is no search for the highest rate the daemon sustains.
//
// store-warm — restarted nodes. Once per run, untimed, a daemon computes
// 240 small designs' sweep tables and synthesize results into a store.
// Then, until the run time is used, a fresh daemon starts over that store
// and replays all 480 requests once in a seeded order with one client per
// CPU. Compile and flow never run: every answer must say cached, or the
// run is incorrect. This is the read side of the store, whose write side
// (one fsync'd Put per table) the sweep workloads exercise. Reads change
// only entry mtimes, so every cycle starts from the same store.
//
// # End-to-end metrics (--trace 0)
//
// Every metric covers the whole measured load (store-warm: all its
// cycles).
//
//	metric          unit  bound  meaning
//	setup_s         s     0.25   the daemon's CPU time (user+sys, from its
//	                             process CPU clock) from spawn to the first
//	                             /healthz 200: the median of 21 starts and
//	                             the load's own (over the filled store for
//	                             store-warm)
//	cpu_ms_per_req  ms    0.25   daemon CPU time during the load (user+sys,
//	                             from its process CPU clock) per request
//	rss_peak_mb     MB    0.17   daemon VmHWM after 30 (sweep-*) or 100
//	                             (serve-interactive) requests per second
//	                             of run (store-warm: at each cycle's end,
//	                             median)
//
// A bound is the share by which a metric's median may worsen before a
// change counts as a regression. Each comes from three sets of ten runs,
// one seed each, on a 2-vCPU VM: max(0.05, 2 x spread), the spread being
// the interquartile range over the median, taken at the worst set and
// workload and rounded up to 0.01. Per workload (sweep-control,
// sweep-datapath, serve-interactive, store-warm) the worst spreads were
//
//	setup_s         0.17  0.25  0.11  0.11   not gated on spread
//	cpu_ms_per_req  0.09  0.11  0.09  0.12   bound 0.19 0.22 0.18 0.25
//	rss_peak_mb     0.08  0.05  0.08  0.002  bound 0.17 0.11 0.16 0.05
//
// and BENCHMARK.json holds one bound per metric: the largest. setup_s has
// the largest bound allowed, 0.25, where the rule would give 0.50; its
// spreads come from two later sets of ten, after it changed from wall to
// CPU time. Between the three sets the medians moved by up to 18%
// (cpu_ms_per_req, store-warm) and 4% (rss_peak_mb); between the two
// later sets, by up to 10% (cpu_ms_per_req, store-warm), 2% (rss_peak_mb)
// and 7% (setup_s, store-warm).
//
// setup_s counts CPU time, not wall time, because a start is too short for
// its wall time to repeat on a shared host. A start takes 4-5 ms of CPU
// (9 ms over store-warm's store), about 3 ms of which a minimal Go HTTP
// server spends as well: exec, page faults and the runtime. Its wall time
// doubled when one busy process shared the two vCPUs, while its CPU time
// did not move, and when setup_s was wall time its median moved by 27%
// between two sets of ten runs of sweep-control and by 61% on
// sweep-datapath (a set where the hypervisor stole 22-37% of the CPU
// time). The report prints the median wall time of the starts.
//
// The VM's speed drifts with its neighbours' load, on a scale of minutes:
// in those sets the hypervisor stole 0-37% of the CPU time of a run.
// Throughput and latency follow the stolen share and are not gated: their
// spreads reached 0.31 (requests/s) and 0.36 (median latency) on
// sweep-datapath, beyond the largest bound a metric may have (0.25), and
// a longer run does not help against a drift slower than a run. The
// daemon's CPU time leaves stolen time out: in runs where 35-37% was
// stolen, sweep-datapath's throughput fell 44% and its CPU per request
// rose 20%.
//
// Not gated, but printed in the report: requests per second, the median
// latency and the highest percentile with at least 10 samples beyond it,
// with its sample count, the open-loop generator's lag p99, and how the
// machine's CPU time split during the load, from /proc/stat: busy, idle,
// waiting on I/O, and stolen by the hypervisor. Latency runs from send
// (closed loops) or the due time (open loop) to the last response of the
// request.
//
// A run is invalid (exit 2, no result) when
//   - any request failed or was refused: every workload is sized so that
//     none do, and a daemon that quickly refused work would otherwise read
//     as faster and cheaper per request;
//   - its median latency has fewer than 10 samples beyond it: fewer than 20
//     requests completed;
//   - a load ended before the request count its peak RSS is read after.
//
// The generator's lag is not held to a limit, since latency already counts
// it: it reached 22-31 ms only while the hypervisor stole the VM's CPUs.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the plain load, then the same load against a
// fresh daemon with one client-side span per SDK call
// (trace_overhead_ratio is the traced over the untraced p50 latency).
// The daemon then stops, and the work it did for each computed request
// (not cached, not deduplicated; for serve-interactive these are its
// warm-up's) is replayed serially in-process, one trace per request and a
// span around each public call, for at most half the run time:
//
//	silage.compile     pmsynth.Compile
//	flow.engine        flow.RunAllPipeline at one worker over a sweep's
//	                   configurations with an empty pipeline: the analysis
//	                   prewarm, point cache and worker pool without passes
//	core.schedule      flow.SchedulePass on a fresh flow.Context
//	alloc.bind         flow.BindPass
//	ctrl.build         flow.ControllerPass
//	core.baseline      flow.BaselinePass
//	power.activity     flow.ActivityPass
//	vhdl.generate      vhdl.Generate, when the request emitted VHDL
//	verilog.generate   verilog.Generate, likewise
//	cache.store.put    Put of the answer into a private cache.Store
//	cache.store.get    Get of it, for store-warm's store-read answers
//
// Each of these reports .calls, .busy_ms, .p50_us and .share, the busy
// time (scaled to the whole replay set) over the traced daemon's CPU time.
// server.synthesize, server.sweep_submit, server.events and server.result
// are the client spans, and jobs.queue_wait and jobs.run come from job
// lifecycle event timestamps; each reports .calls, .busy_ms and .p50_us.
// The ratios are power.exact_ratio, core.managed_per_point,
// cdfg.nodes_per_design and silage.kb_per_s from the replay;
// cache.result, cache.design, flow.pointcache and cache.store .hit_ratio
// and server.shed_ratio from the daemon's /metrics; server.dedup_ratio
// from the sweep answers; and server.overhead.share, one minus the summed
// shares: HTTP, JSON, admission, persistence and GC. No trace is passed
// into program code: spans wrap the calls from outside.
//
// Which end-to-end metric a layer metric should move, and where it should
// not; throughput and latency are the report's ungated figures:
//
//	power.activity.*, power.exact_ratio   cpu_ms_per_req, throughput on
//	                                      sweep-control; none on
//	                                      sweep-datapath, store-warm
//	core.schedule.*, managed_per_point    cpu_ms_per_req, latency on
//	                                      sweep-control; none on store-warm
//	core.baseline.*, alloc.bind.*,        cpu_ms_per_req, throughput on
//	ctrl.build.*                          sweep-datapath; none on store-warm
//	silage.compile.*, silage.kb_per_s     cpu_ms_per_req, latency on
//	                                      sweep-datapath; none on store-warm
//	flow.engine.*, pointcache.hit_ratio   rss_peak_mb and, through GC,
//	                                      cpu_ms_per_req on sweep-datapath
//	server.*, cache.result/design         cpu_ms_per_req, latency on
//	.hit_ratio, server.dedup_ratio        serve-interactive; the cache
//	                                      ratios none on sweep-* (all new)
//	cache.store.get.*, store.hit_ratio,   cpu_ms_per_req, setup_s on
//	server.shed_ratio                     store-warm; none on
//	                                      serve-interactive
//	cache.store.put.*, jobs.*             latency on sweep-*; none on
//	                                      store-warm
//	vhdl.generate.*, verilog.generate.*   none: they run only in
//	                                      serve-interactive's untimed warm-up
//
// # Correctness gate
//
// Every run compares the distinct answers it was served — all of them, or
// the first 32 plus a seeded sample when there are more than 400 — with
// the library's answer to the same request (the Row and any RTL text;
// SweepResult.Table(); the best and Pareto indices and rows). It has
// pmsynth's reference interpreter check 16 seeded designs
// (Synthesis.Verify with 32 vectors), flags any key answered two ways, and
// prints a digest of the first 32 answers, identical across runs of one
// seed. Any mismatch makes correct false and the exit status 1.
//
// # Baseline findings
//
// store-warm stays at 240 designs because pmsynthd bounds live
// store-restored jobs by -max-warm-jobs (256). With 1000 designs (2000
// requests per cycle), 744 replays of every cycle (37.2%) are refused with
// 429: each warm sweep after the 256th, after its table was already read
// from disk.
//
// sweep-datapath's daemon keeps every finished job, design included, for
// the job TTL (1h), so its memory grows with the work done: VmHWM was
// 385 MB after 300 requests, about 525 MB after 600 and 855 MB after
// 1500, some 0.39 MB per finished job. rss_peak_mb is read after a
// request count fixed by the run length, so that a faster daemon does not
// read as a fatter one.
package main
