package sim

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/sched"
)

// Options configures value semantics.
type Options struct {
	// Width, when nonzero, wraps every value to an unsigned Width-bit
	// word, matching the generated datapath. Zero means full int64
	// semantics.
	Width int
}

func (o Options) mask(v int64) int64 {
	if o.Width <= 0 || o.Width >= 64 {
		return v
	}
	return v & (1<<uint(o.Width) - 1)
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// canApply reports whether applyKnown handles the kind. Compilation checks
// this once per node so the evaluation loops carry no error branch.
func canApply(k cdfg.Kind) bool {
	switch k {
	case cdfg.KindAdd, cdfg.KindSub, cdfg.KindMul,
		cdfg.KindLt, cdfg.KindGt, cdfg.KindLe, cdfg.KindGe,
		cdfg.KindEq, cdfg.KindNe,
		cdfg.KindAnd, cdfg.KindOr, cdfg.KindNot,
		cdfg.KindShl, cdfg.KindShr:
		return true
	}
	return false
}

// applyKnown computes one operation of a kind canApply accepted, on
// already-masked operand values. Unary kinds ignore a1.
func applyKnown(k cdfg.Kind, shift int, a0, a1 int64, o Options) int64 {
	switch k {
	case cdfg.KindAdd:
		return o.mask(a0 + a1)
	case cdfg.KindSub:
		return o.mask(a0 - a1)
	case cdfg.KindMul:
		return o.mask(a0 * a1)
	case cdfg.KindLt:
		return boolVal(a0 < a1)
	case cdfg.KindGt:
		return boolVal(a0 > a1)
	case cdfg.KindLe:
		return boolVal(a0 <= a1)
	case cdfg.KindGe:
		return boolVal(a0 >= a1)
	case cdfg.KindEq:
		return boolVal(a0 == a1)
	case cdfg.KindNe:
		return boolVal(a0 != a1)
	case cdfg.KindAnd:
		return boolVal(a0 != 0 && a1 != 0)
	case cdfg.KindOr:
		return boolVal(a0 != 0 || a1 != 0)
	case cdfg.KindNot:
		return boolVal(a0 == 0)
	case cdfg.KindShl:
		return o.mask(a0 << uint(shift))
	case cdfg.KindShr:
		return o.mask(a0 >> uint(shift))
	}
	panic(fmt.Sprintf("sim: applyKnown on unvetted kind %s", k))
}

// Evaluate interprets the graph on the given inputs (keyed by input node
// name) and returns the outputs keyed by output node name. Every input must
// be provided. Values are masked per Options.
//
// Evaluate is the one-vector convenience wrapper over the compiled
// behavioral path; callers pushing many vectors through one graph compile a
// Program once instead.
func Evaluate(g *cdfg.Graph, inputs map[string]int64, opt Options) (map[string]int64, error) {
	p, err := Compile(g, opt)
	if err != nil {
		return nil, err
	}
	// The program is throwaway, so handing out its output map is safe.
	return p.Eval(inputs)
}

// Guard is one gating condition attached to an operation by the power
// management pass: the operation's input registers load only when the
// select node's value equals WhenTrue.
type Guard struct {
	// Sel is the node producing the controlling signal (a mux's select).
	Sel cdfg.NodeID
	// WhenTrue picks which select value enables the guarded operation:
	// true means the operation belongs to the mux's 1-branch.
	WhenTrue bool
}

// Guards maps operations to their gating conditions. Operations absent from
// the map always execute. An operation with several guards executes only
// when all of them are satisfied (nested conditionals).
type Guards map[cdfg.NodeID][]Guard

// Result is the outcome of one gated scheduled execution.
type Result struct {
	// Outputs holds the output values keyed by output node name.
	Outputs map[string]int64
	// Executed flags, per node ID, whether the operation executed
	// (loaded its input registers and switched). Interface and wiring
	// nodes are marked executed when their value is valid.
	Executed []bool
}

// NumExecuted counts executed operations of the given class.
func (r Result) NumExecuted(g *cdfg.Graph, c cdfg.Class) int {
	n := 0
	for id, ex := range r.Executed {
		if ex && g.Node(cdfg.NodeID(id)).Class() == c {
			n++
		}
	}
	return n
}

// ExecuteScheduled runs the schedule control step by control step, honoring
// the gating guards. It verifies that every executing operation reads only
// valid values (a multiplexor needs its select and the selected data input;
// everything else needs all arguments), and that every output is valid at
// the end. The error cases indicate an unsound gating assignment.
//
// ExecuteScheduled is the one-sample convenience wrapper over the compiled
// scheduled path; callers pushing many samples through one schedule compile
// a ScheduledProgram once instead.
func ExecuteScheduled(s *sched.Schedule, guards Guards, inputs map[string]int64, opt Options) (Result, error) {
	p, err := CompileScheduled(s, guards, opt)
	if err != nil {
		return Result{}, err
	}
	// The program is throwaway, so handing out its buffers is safe.
	return p.Run(inputs)
}
