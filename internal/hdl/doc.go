// Package hdl lowers a scheduled, bound controller to its
// register-transfer structure, which internal/chip maps to gates and
// internal/vhdl and internal/verilog print. It decides the structure
// once:
//
//   - each operation's value register, latched at the end of its step,
//     with its load enable (a state and, in the power managed
//     controller, guard bits) and its data: the unit's result, or a
//     result of its own for a comparison, a logic operation or a
//     multiplexor, whose steering is inlined in front of the register
//     (multiplexors have no unit);
//   - each execution unit's operand loads in steering order, one step
//     before each operation the unit hosts;
//   - the condition bits the controller reads, exactly those the enables
//     read;
//   - the identifier rule (Sanitize) and every name, each legal in
//     VHDL-93 and Verilog-2001 and unique within the design without
//     regard to case, the width check, and the port lists of the
//     datapath, the controller and the top level.
//
// Every data source and guard bit (Src) follows one rule: a read during
// the step its producer executes takes the producer's combinational
// result, since the register latches it only at that step's closing
// edge; any later read takes the register.
//
// The lowering is deterministic for a given controller.
package hdl
