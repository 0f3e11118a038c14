// Package chip assembles a complete gate-level implementation — datapath
// plus controller — of a scheduled, bound design, and measures its
// switching activity. It is the stand-in for the paper's Synopsys Design
// Compiler + DesignPower flow (Table III).
//
// The chip maps internal/hdl's register-transfer structure, the one the
// VHDL and Verilog printers print, to gates; it decides nothing of that
// structure itself. Following the paper's architecture:
//
//   - a self-starting one-hot ring counter provides the control steps
//     (Steps+1 states; state 0 is the operand prologue);
//   - every operation owns a value register latched at the end of its
//     control step; boolean results double as the condition registers;
//     a multiplexor is steering inlined in front of its register;
//   - every other execution unit has operand registers latched one cycle
//     before each operation it hosts, with steering multiplexors when
//     the unit is shared;
//   - in the power managed variant every load enable is ANDed with the
//     operation's guard bits: a disabled operand register freezes the
//     unit's inputs — no switching, no dynamic power. A read during the
//     step its producer executes, data or guard, taps the producer's
//     combinational result (its register's data input); later reads
//     take the register.
//
// Primary inputs are driven and held by the testbench for a whole sample,
// so they need no input registers; constants are hardwired.
//
// Compare takes one design's two controllers, power managed and
// traditional (as flow.Context.Controllers returns them), builds both
// chips, and measures them on one input stream, checking every sample
// against the reference interpreter. The package schedules and binds
// nothing itself: whoever synthesized the design passes its controllers.
package chip
