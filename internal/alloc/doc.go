// Package alloc maps a scheduled CDFG onto execution units, and holds the
// unit area model used for the Table II "Area Incr." column. It allocates
// no register file: every design the tool builds gives each operation its
// own value register.
//
// Binding exploits mutual exclusiveness (paper §II.C): two operations of
// the same class scheduled in the same control step may share one unit
// when their gating guards prove that at most one of them executes per
// sample — they sit on opposite branches of a power managed multiplexor.
// This is how the power managed schedules avoid most of the area penalty
// their extra serialization would otherwise cause.
package alloc
