// Package verilog emits Verilog-2001 for a scheduled, bound design. It
// prints internal/hdl's register-transfer structure, the one the
// gate-level chip is built from: a datapath module (value registers,
// inlined multiplexors, shared execution units with their operand
// steering), a controller module (FSM with condition-qualified load
// enables) and a top module wiring them together. The original flow
// produced VHDL; a Verilog backend makes the generated RTL usable with
// open-source simulators and synthesis tools.
//
// Output is deterministic for a given design.
package verilog
