// Package verify is the differential oracle of the cross-layer
// verification harness. For one Silage source and a matrix of synthesis
// configurations it checks every invariant the paper's claim rests on:
//
//   - schedule validity: the power managed and baseline schedules both
//     satisfy precedence, budget and resource constraints (sched.Validate);
//   - behavioral equivalence: the gated control-step executor computes the
//     same outputs as the reference interpreter on every probe vector —
//     power management must never change functionality;
//   - RTL/gate-level equivalence: both generated chips (power managed and
//     baseline) match the reference interpreter on shared random vectors
//     (chip.Compare verifies every sample);
//   - determinism: re-running Synthesize yields byte-identical schedules,
//     VHDL and Verilog, and Sweep yields a byte-identical result table at
//     every worker count, each count's table computed afresh (no Sweep
//     call reuses another's points) — results may never depend on
//     goroutine timing;
//   - fingerprint integrity: equal requests hash equally and distinct
//     configurations hash distinctly, so the pmsynthd cache can neither
//     miss a dedup nor serve a stale result for a different request.
//
// The same oracle backs three entry points: the property tests in this
// package (go test), the fuzz targets (go test -fuzz), and cmd/pmverify
// (CI and the daemon's smoke step).
package verify
