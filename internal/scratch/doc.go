// Package scratch keeps working memory between calls. A List is a small
// bounded free list: a call takes its buffers from it and gives them back
// when it returns, so the points of a sweep reuse what earlier points
// allocated and allocate only what their results keep.
//
// The packages on a sweep point's path each keep their own List: the list
// scheduler's state and windows (internal/sched), the power management
// pass with its windows and gate deriver (internal/core), the binder's
// counting buffers (internal/alloc), the activity walk's guard tables
// (internal/power) and the topological sort's in-degrees and heap
// (internal/cdfg). The front end keeps one for Compile's parse memory and
// elaborator tables (internal/silage).
//
// A List is not a sync.Pool on purpose. Under the race detector a Pool
// drops a share of its Puts at random, and every GC cycle empties it, so
// the tests that pin a warm call's allocation count would flake. A List
// keeps what it is given, up to Bound values, for the life of the process.
package scratch
