// Package verilog emits Verilog-2001 for a scheduled, bound design. It
// prints internal/hdl's lowering: a datapath module (registers, shared
// execution units, operand steering), a controller module (FSM with
// condition-qualified load enables) and a top module wiring them together.
// The original flow produced VHDL; a Verilog backend makes the generated
// RTL usable with open-source simulators and synthesis tools.
//
// Output is deterministic for a given design.
package verilog
