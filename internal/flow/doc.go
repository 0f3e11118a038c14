// Package flow decomposes the power management synthesis flow of Monteiro
// et al. (DAC'96) into named passes over a shared context, and provides a
// bounded-concurrency engine that evaluates many configurations of one
// design — the architectural seam between the per-run algorithms
// (internal/core, internal/alloc, internal/ctrl, internal/power) and the
// layers that explore a design space. The root pmsynth package is the
// engine's main caller: cmd/pmsched, cmd/tables and pmsynthd reach it
// through pmsynth.Synthesize and Sweep. Programs that measure the engine
// itself (cmd/pmbench and the benchmark harness) call RunAllPipeline
// directly. The exact minimum-power scheduler (internal/optimal) is no
// pass: it is an oracle that studies one finished synthesis, reached
// through pmsynth.(*Synthesis).Optimal.
//
// A Pass is one stage of the flow; a Pipeline runs passes in order over a
// Context, which collects every artifact. Pass timing is the
// "pass:<name>" telemetry span and nothing else. The Standard pipeline
// computes exactly what a Table II row reads:
//
//	schedule -> bind -> baseline -> activity
//
// The FSM controllers of both designs, which only RTL emission and the
// gate-level chips read, are built on first use by Context.Controllers.
//
// See DESIGN.md at the repository root for the architecture.
package flow
