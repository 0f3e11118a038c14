// Package tables regenerates every table and figure of the paper's
// experimental section for cmd/tables, printing the measured values of
// this reproduction side by side with the published numbers. Every row
// comes from the library's public API (pmsynth.Synthesize, Sweep, Row and
// GateLevelReport), so a table computes a design's numbers exactly as a
// library caller does. Only the optimality-gap table runs its own pass
// pipeline, because the public API has no optimal-schedule pass.
package tables
