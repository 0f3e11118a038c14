// Package tables regenerates every table and figure of the paper's
// experimental section for cmd/tables, printing the measured values of
// this reproduction side by side with the published numbers. Every row
// comes from the library's public API (pmsynth.Synthesize, Sweep, Row,
// GateLevelReport and Optimal), so a table computes a design's numbers
// exactly as a library caller does, and the package imports no part of
// the synthesis core.
package tables
