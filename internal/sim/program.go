package sim

// Compiled batch evaluation. Evaluate and ExecuteScheduled interpret the
// graph through maps and per-call allocations — fine for one vector,
// wasteful for the thousands the gate-level comparison, the Monte Carlo
// activity estimator and the verification oracle push through a single
// design. Compiling the graph once into a flat topo-ordered instruction
// program (Compile / CompileScheduled) moves every map probe, arity check
// and ordering decision to compile time; running a vector is then a tight
// loop over reused buffers. Evaluate and ExecuteScheduled are thin
// one-vector wrappers over the compiled paths, so the semantics cannot
// drift apart.

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/sched"
)

// instr is one compiled dataflow operation. Arguments are node IDs
// (indices into the value buffer); a2 is used only by multiplexors.
type instr struct {
	kind       cdfg.Kind
	dest       cdfg.NodeID
	a0, a1, a2 cdfg.NodeID
	shift      int
}

// Program is a graph compiled for repeated behavioral evaluation (the
// reference interpreter semantics of Evaluate). A Program reuses internal
// buffers across calls and is therefore NOT safe for concurrent use;
// concurrent evaluators compile one Program each (compilation is cheap —
// one topological walk).
type Program struct {
	g       *cdfg.Graph
	opt     Options
	inIDs   []cdfg.NodeID
	inNames []string
	instrs  []instr
	outIDs  []cdfg.NodeID
	vals    []int64
	out     map[string]int64
}

// Compile lowers the graph into a behavioral evaluation program. It fails
// when the graph is cyclic or contains a kind the evaluator cannot apply.
func Compile(g *cdfg.Graph, opt Options) (*Program, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &Program{
		g:    g,
		opt:  opt,
		vals: make([]int64, g.NumNodes()),
		out:  make(map[string]int64, len(g.Outputs())),
	}
	for _, id := range g.Inputs() {
		p.inIDs = append(p.inIDs, id)
		p.inNames = append(p.inNames, g.Node(id).Name)
	}
	p.outIDs = append(p.outIDs, g.Outputs()...)
	for _, id := range order {
		n := g.Node(id)
		switch n.Kind {
		case cdfg.KindInput:
			// Loaded per vector.
		case cdfg.KindConst:
			p.vals[id] = opt.mask(n.Value)
		case cdfg.KindOutput:
			p.instrs = append(p.instrs, instr{kind: n.Kind, dest: id, a0: n.Args[0]})
		case cdfg.KindMux:
			p.instrs = append(p.instrs, instr{kind: n.Kind, dest: id,
				a0: n.Args[cdfg.MuxSel], a1: n.Args[cdfg.MuxTrue], a2: n.Args[cdfg.MuxFalse]})
		default:
			if !canApply(n.Kind) {
				return nil, fmt.Errorf("sim: cannot apply %s node %q", n.Kind, n.Name)
			}
			in := instr{kind: n.Kind, dest: id, shift: n.Shift, a0: n.Args[0]}
			if len(n.Args) > 1 {
				in.a1 = n.Args[1]
			}
			p.instrs = append(p.instrs, in)
		}
	}
	return p, nil
}

// run loads one input vector and executes the instruction list.
func (p *Program) run(inputs map[string]int64) error {
	for i, id := range p.inIDs {
		v, ok := inputs[p.inNames[i]]
		if !ok {
			return fmt.Errorf("sim: missing input %q", p.inNames[i])
		}
		p.vals[id] = p.opt.mask(v)
	}
	vals := p.vals
	for _, in := range p.instrs {
		switch in.kind {
		case cdfg.KindOutput:
			vals[in.dest] = vals[in.a0]
		case cdfg.KindMux:
			if vals[in.a0] != 0 {
				vals[in.dest] = vals[in.a1]
			} else {
				vals[in.dest] = vals[in.a2]
			}
		default:
			vals[in.dest] = applyKnown(in.kind, in.shift, vals[in.a0], vals[in.a1], p.opt)
		}
	}
	return nil
}

// Eval runs one vector and returns the outputs keyed by output node name,
// in a program-owned map that is valid only until the next Eval call.
// Batch consumers compare or fold each vector's outputs before the next,
// so evaluation makes no steady-state allocations.
func (p *Program) Eval(inputs map[string]int64) (map[string]int64, error) {
	if err := p.run(inputs); err != nil {
		return nil, err
	}
	for _, id := range p.outIDs {
		p.out[p.g.Node(id).Name] = p.vals[id]
	}
	return p.out, nil
}

// sGuard is one compiled gating condition of a scheduled program.
type sGuard struct {
	sel      cdfg.NodeID
	whenTrue bool
}

// ScheduledProgram is a gated schedule compiled for repeated execution
// (the control-step semantics of ExecuteScheduled). Like Program it reuses
// internal buffers across calls and is NOT safe for concurrent use.
type ScheduledProgram struct {
	s   *sched.Schedule
	g   *cdfg.Graph
	opt Options

	inIDs     []cdfg.NodeID
	inNames   []string
	constIDs  []cdfg.NodeID
	constVals []int64
	// guards is the guard map lowered to a node-indexed slice.
	guards [][]sGuard
	// steps[t-1] lists the operations of control step t in node-ID order
	// (the OpsInStep order).
	steps [][]cdfg.NodeID
	// wires lists the zero-latency propagation candidates (outputs and
	// constant shifts) in topological order.
	wires  []cdfg.NodeID
	outIDs []cdfg.NodeID

	vals     []int64
	valid    []bool
	executed []bool
	out      map[string]int64
}

// CompileScheduled lowers a schedule plus its gating guards into an
// executable program. It fails when the scheduled graph has no topological
// order or carries a node kind the executor cannot handle.
func CompileScheduled(s *sched.Schedule, guards Guards, opt Options) (*ScheduledProgram, error) {
	g := s.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	p := &ScheduledProgram{
		s: s, g: g, opt: opt,
		guards:   make([][]sGuard, n),
		steps:    make([][]cdfg.NodeID, s.Steps),
		vals:     make([]int64, n),
		valid:    make([]bool, n),
		executed: make([]bool, n),
		out:      make(map[string]int64, len(g.Outputs())),
	}
	for _, id := range g.Inputs() {
		p.inIDs = append(p.inIDs, id)
		p.inNames = append(p.inNames, g.Node(id).Name)
	}
	for _, id := range g.Consts() {
		p.constIDs = append(p.constIDs, id)
		p.constVals = append(p.constVals, opt.mask(g.Node(id).Value))
	}
	p.outIDs = append(p.outIDs, g.Outputs()...)
	for id, gl := range guards {
		cg := make([]sGuard, len(gl))
		for i, gd := range gl {
			cg[i] = sGuard{sel: gd.Sel, whenTrue: gd.WhenTrue}
		}
		p.guards[id] = cg
	}
	// Step lists in node-ID order: one pass over the nodes replaces the
	// per-step OpsInStep scan (O(V * Steps) for long schedules).
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			if t := s.Time[nd.ID]; t >= 1 && t <= s.Steps {
				p.steps[t-1] = append(p.steps[t-1], nd.ID)
			}
		}
		if nd.Kind != cdfg.KindMux && nd.IsOp() && !canApply(nd.Kind) {
			return nil, fmt.Errorf("sim: cannot apply %s node %q", nd.Kind, nd.Name)
		}
	}
	for _, id := range order {
		nd := g.Node(id)
		if nd.Latency() != 0 || nd.Kind == cdfg.KindInput || nd.Kind == cdfg.KindConst {
			continue
		}
		switch nd.Kind {
		case cdfg.KindOutput, cdfg.KindShl, cdfg.KindShr:
			p.wires = append(p.wires, id)
		default:
			return nil, fmt.Errorf("sim: unexpected zero-latency %s node %q", nd.Kind, nd.Name)
		}
	}
	return p, nil
}

// enabled evaluates a node's compiled guards. A guard whose select is not
// valid means the controlling mux was itself shut down, which implies this
// node must not execute either.
func (p *ScheduledProgram) enabled(id cdfg.NodeID) bool {
	for _, gd := range p.guards[id] {
		if !p.valid[gd.sel] {
			return false
		}
		if (p.vals[gd.sel] != 0) != gd.whenTrue {
			return false
		}
	}
	return true
}

// settle propagates values through the zero-latency wires whose
// predecessors are valid. The wire list is in topological order, so a
// chain of shifts settles in one pass.
func (p *ScheduledProgram) settle() {
	for _, id := range p.wires {
		if p.valid[id] {
			continue
		}
		nd := p.g.Node(id)
		allValid := true
		for _, a := range nd.Args {
			if !p.valid[a] {
				allValid = false
				break
			}
		}
		if !allValid {
			continue
		}
		switch nd.Kind {
		case cdfg.KindOutput:
			p.vals[id] = p.vals[nd.Args[0]]
		default: // KindShl, KindShr (validated at compile time)
			p.vals[id] = applyKnown(nd.Kind, nd.Shift, p.vals[nd.Args[0]], 0, p.opt)
		}
		p.valid[id] = true
		p.executed[id] = true
	}
}

// run executes one gated sample over the reused buffers.
func (p *ScheduledProgram) run(inputs map[string]int64) error {
	clear(p.valid)
	clear(p.executed)

	// Interface nodes settle before step 1.
	for i, id := range p.inIDs {
		v, ok := inputs[p.inNames[i]]
		if !ok {
			return fmt.Errorf("sim: missing input %q", p.inNames[i])
		}
		p.vals[id] = p.opt.mask(v)
		p.valid[id] = true
		p.executed[id] = true
	}
	for i, id := range p.constIDs {
		p.vals[id] = p.constVals[i]
		p.valid[id] = true
		p.executed[id] = true
	}
	p.settle()

	for t := 1; t <= p.s.Steps; t++ {
		for _, id := range p.steps[t-1] {
			nd := p.g.Node(id)
			if !p.enabled(id) {
				continue
			}
			if nd.Kind == cdfg.KindMux {
				sel := nd.Args[cdfg.MuxSel]
				if !p.valid[sel] {
					return fmt.Errorf("sim: mux %q executes at step %d with invalid select", nd.Name, t)
				}
				var chosen cdfg.NodeID
				if p.vals[sel] != 0 {
					chosen = nd.Args[cdfg.MuxTrue]
				} else {
					chosen = nd.Args[cdfg.MuxFalse]
				}
				if !p.valid[chosen] {
					return fmt.Errorf("sim: mux %q selects invalid input %q at step %d",
						nd.Name, p.g.Node(chosen).Name, t)
				}
				p.vals[id] = p.vals[chosen]
			} else {
				var a0, a1 int64
				for i, a := range nd.Args {
					if !p.valid[a] {
						return fmt.Errorf("sim: op %q reads invalid value %q at step %d",
							nd.Name, p.g.Node(a).Name, t)
					}
					if i == 0 {
						a0 = p.vals[a]
					} else {
						a1 = p.vals[a]
					}
				}
				p.vals[id] = applyKnown(nd.Kind, nd.Shift, a0, a1, p.opt)
			}
			p.valid[id] = true
			p.executed[id] = true
		}
		p.settle()
	}

	for _, id := range p.outIDs {
		if !p.valid[id] {
			return fmt.Errorf("sim: output %q never became valid", p.g.Node(id).Name)
		}
	}
	return nil
}

// Run executes one gated sample and returns a Result backed by the
// program's own buffers: Outputs and Executed are valid only until the
// next Run call. Batch consumers fold each sample's result immediately
// (activity counting, output comparison), so execution makes no
// steady-state allocations.
func (p *ScheduledProgram) Run(inputs map[string]int64) (Result, error) {
	if err := p.run(inputs); err != nil {
		return Result{}, err
	}
	for _, id := range p.outIDs {
		p.out[p.g.Node(id).Name] = p.vals[id]
	}
	return Result{Outputs: p.out, Executed: p.executed}, nil
}
