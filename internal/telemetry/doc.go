// Package telemetry is the dependency-free observability kernel of the
// serving stack: spans and traces carried through context.Context, a
// bounded ring of recent traces, a small metrics registry
// (callback-backed counters and gauges, fixed-bucket histograms)
// rendering valid Prometheus text exposition, and log/slog construction
// helpers.
//
// The tracing API is built around a zero-cost disabled path: when no
// *Trace rides the context, StartSpan returns a nil *Span without
// allocating, and every *Span method is nil-safe, so instrumented code
// pays nothing when tracing is off (asserted by a zero-allocation test).
// Tracing never influences computation results — spans only observe.
package telemetry
