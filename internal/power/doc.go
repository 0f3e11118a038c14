// Package power implements the paper's datapath power model.
//
// The paper assigns every operation class a relative power weight obtained
// from timing simulation of 8-bit units with random vectors — MUX:1,
// COMP:4, +:3, -:3, *:20 — and reports, per schedule, the average number of
// times each operation executes in one computation assuming every
// multiplexor selects either input with equal probability (Table II). The
// datapath power reduction is then
//
//	1 - sum(weight*expected executions) / sum(weight*total ops).
//
// This package computes the expected activations exactly, by enumerating
// the joint outcomes of the distinct controlling signals (selects shared by
// several muxes are fully correlated — cordic's x/y/z updates share one
// sign bit per iteration), and cross-checks with a Monte Carlo executor
// that runs the gated schedule on random input vectors. AnalyzeExact is
// the one exact evaluator, for the flow and the exact solver alike: it
// enumerates each group of selects the guards connect on its own, and
// reads its order from the guards, not the graph.
package power
