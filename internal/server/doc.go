// Package server is the HTTP front door of the synthesis engine: the
// pmsynthd API. It composes the content-addressed disk store
// (internal/cache) and the async job manager (internal/jobs) over the
// public pmsynth API:
//
//	POST /v1/synthesize        one-shot synthesis: a one-point sweep job, awaited
//	POST /v1/sweep             create an async design-space sweep job
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/events  NDJSON stream of the ordered event log
//	GET  /v1/jobs/{id}/result  best / pareto / table views of the sweep
//	GET  /v1/jobs/{id}/trace   span tree of the request that admitted the job
//	POST /v1/jobs/{id}/cancel  cancel a pending or running job
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus-style counters
//	GET  /debug/traces         the most recent retained request traces
//
// The JSON bodies of the synthesize, sweep, job and health routes are
// the SDK's types (repro/client), decoded and encoded as they are; this
// package declares only its uniform error body. Trace bodies are
// internal/telemetry snapshots, which client.Trace repeats field for
// field.
//
// Every job enters through one of the two POST routes, and each request
// carries one source and one spec: N sweeps are N POST /v1/sweep
// requests, each routed, deduped and shed on its own.
//
// Identical requests collapse at one point, the job manager's table of
// jobs by key: a synthesize is a one-point sweep, and every submission
// whose key — the sweep fingerprint, extended by the RTL a synthesize
// asks for — matches a live job joins that job instead of starting a
// second one. That table is the server's only in-memory tier; this
// package keeps no index, map or mutex of its own. No compiled design is
// kept: identical submissions racing through compile may each compile,
// then meet when the job manager commits the first and joins the rest,
// and a finished job holds only its decoded table.
//
// Admission is lock-free in the sense that matters for availability: no
// client-controlled work (Compile, Enumerate) ever runs under the job
// manager's mutex, so one slow or hostile submission cannot head-of-line
// block the others. Jobs, synthesize requests included, queue on a bounded
// admission queue; beyond its capacity submissions are shed with 429 +
// Retry-After instead of piling up unboundedly.
//
// With a store directory configured, results also survive the process: a
// disk-backed content-addressed tier (internal/cache.Store) persists
// finished sweeps under their keys, appended to one segment file per
// daemon, so a restarted daemon serves warm hits — byte-identical, with
// zero recompiles — and a key stays answerable after its job is
// TTL-collected. See DESIGN.md ("Persistence").
package server
