// Package optimal computes certified minimum-power schedules for the
// paper's binary shutdown model: the exact baseline the heuristic of
// internal/core is measured against.
//
// The objective is the same one Table II reports — expected weighted
// switched capacitance under the equiprobable-select model — minimized
// over all schedules that satisfy the latency budget, the initiation
// interval and (optionally) a fixed resource bag, with operations gated
// exactly when their serialization constraint ("select resolves before
// the gated operation fires") is met. The solver evaluates the objective
// with the flow's own evaluator, power.AnalyzeExact, or power.Independent
// for the whole search when the candidates' selects exceed its cap.
//
// Search structure. The gating opportunities of a graph are its branch
// candidates (core.BranchCandidates): per mux branch, the maximal
// successor-closed set of operations exclusive to that branch. A schedule
// determines, per candidate, which members are actually gateable — the
// maximal successor-closed subset whose members all fire no earlier than
// one step after the select — and conversely any successor-closed subset
// whose serialization constraints admit a feasible schedule is realizable.
// The solver therefore branch-and-bounds over per-member keep/drop
// decisions (successors first, so closure is enforced by construction),
// checking feasibility of the accumulated serialization edges with a
// longest-path analysis over the augmented dependence graph, and — when a
// fixed resource bag is given — with an exact (operation, control step)
// backtracking scheduler under modulo-II slot limits.
//
// Bounds and certificates. At every search node an admissible lower bound
// is computed: the power of the optimistic guard set that keeps every
// undecided member still individually compatible with the current ASAP/
// ALAP windows (windows only tighten as edges accumulate, so no
// completion can gate more). Subtrees whose bound cannot beat the
// incumbent are pruned. A configurable node-expansion budget makes the
// solver total on adversarial inputs: when it is exhausted the Result's
// Certificate reports Optimal=false together with a sound LowerBound (the
// minimum over the incumbent and every abandoned subtree's bound), so
// callers always learn a certified interval rather than hanging.
//
// Warm start. Config.Seed accepts the heuristic's schedule times; the
// realized gating of the seed becomes the initial incumbent, which both
// accelerates pruning and guarantees Result.Power never exceeds the
// heuristic's power — even when the expansion budget truncates the
// search. This is the invariant the optimality-gap oracle stage in
// internal/verify asserts.
package optimal
