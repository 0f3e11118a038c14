// Package vhdl emits VHDL for a scheduled, bound design. It prints
// internal/hdl's register-transfer structure, the one the gate-level
// chip is built from: a datapath entity (value registers, inlined
// multiplexors, shared execution units with their operand steering), a
// controller entity (the FSM with condition-qualified load enables), and
// a top-level entity wiring them together. This mirrors the original
// flow, which generated VHDL from HYPER and synthesized it with Synopsys
// Design Compiler.
//
// The emitted text is deterministic for a given design, so golden tests
// and diffs are stable.
package vhdl
