// Package hdl lowers a scheduled, bound controller to the RTL structure
// that internal/vhdl and internal/verilog print: the identifier rule
// (Sanitize), the width check, the operations with their value
// registers, load enables and steering strobes, the condition registers
// the datapath exports, the execution units with the operations each
// steers, the port lists of the datapath, the controller and the top
// level, and the top level's wires. Every naming and port decision is
// made here once; the printers keep only their language's syntax.
//
// The lowering is deterministic for a given controller.
package hdl
