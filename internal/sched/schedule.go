package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cdfg"
)

// Schedule assigns every node of a graph an availability time; operation
// nodes execute in the control step equal to their time. A Schedule may be
// pipelined, in which case II (initiation interval) is the number of steps
// between consecutive samples and resources are shared modulo II.
type Schedule struct {
	// Graph is the scheduled graph (with any control edges that
	// constrained the schedule).
	Graph *cdfg.Graph
	// Steps is the schedule length in control steps (the latency).
	Steps int
	// II is the initiation interval; II == Steps for non-pipelined
	// schedules.
	II int
	// Time is the per-node availability time (execution step for ops).
	Time Times
}

// StepOf returns the control step in which node id executes. For free
// nodes it returns the time their value becomes available.
func (s *Schedule) StepOf(id cdfg.NodeID) int { return s.Time[id] }

// OpsInStep returns the operation nodes executing in control step t, in ID
// order.
func (s *Schedule) OpsInStep(t int) []cdfg.NodeID {
	var out []cdfg.NodeID
	for _, n := range s.Graph.Nodes() {
		if n.IsOp() && s.Time[n.ID] == t {
			out = append(out, n.ID)
		}
	}
	return out
}

// Usage returns, per class, the maximum number of simultaneously executing
// operations, honoring modulo overlap when II < Steps. This is the number
// of execution units a naive (non-sharing) binding needs.
func (s *Schedule) Usage() Resources {
	// perSlot[slot][class] counts ops in modulo slot.
	perSlot := make([]map[cdfg.Class]int, s.II)
	for i := range perSlot {
		perSlot[i] = make(map[cdfg.Class]int)
	}
	for _, n := range s.Graph.Nodes() {
		if !n.IsOp() {
			continue
		}
		slot := (s.Time[n.ID] - 1) % s.II
		perSlot[slot][n.Class()]++
	}
	out := make(Resources)
	for _, m := range perSlot {
		for c, k := range m {
			if k > out[c] {
				out[c] = k
			}
		}
	}
	return out
}

// Validate checks that the schedule respects precedence (data and control
// edges), the step budget, per-step resource limits (modulo II), and that
// free nodes are placed at their ready time.
func (s *Schedule) Validate(res Resources) error {
	g := s.Graph
	if len(s.Time) != g.NumNodes() {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.Time), g.NumNodes())
	}
	if s.II <= 0 || s.Steps <= 0 || s.II > s.Steps {
		return fmt.Errorf("sched: bad shape steps=%d ii=%d", s.Steps, s.II)
	}
	adj := g.SchedAdjacency()
	for _, n := range g.Nodes() {
		tn := s.Time[n.ID]
		switch {
		case n.Kind == cdfg.KindInput || n.Kind == cdfg.KindConst:
			if tn != 0 {
				return fmt.Errorf("sched: %s %q scheduled at %d, want 0", n.Kind, n.Name, tn)
			}
		case n.IsOp():
			if tn < 1 || tn > s.Steps {
				return fmt.Errorf("sched: op %q at step %d outside [1,%d]", n.Name, tn, s.Steps)
			}
		}
		ready := 0
		for _, p := range adj.Preds(n.ID) {
			if s.Time[p] > ready {
				ready = s.Time[p]
			}
		}
		if tn < ready+n.Latency() {
			return fmt.Errorf("sched: %q at %d violates readiness %d+%d", n.Name, tn, ready, n.Latency())
		}
		if n.Latency() == 0 && n.IsOp() {
			return fmt.Errorf("sched: node %q is a zero-latency op", n.Name)
		}
	}
	if res != nil {
		perSlot := make([]map[cdfg.Class]int, s.II)
		for i := range perSlot {
			perSlot[i] = make(map[cdfg.Class]int)
		}
		for _, n := range g.Nodes() {
			if !n.IsOp() {
				continue
			}
			slot := (s.Time[n.ID] - 1) % s.II
			perSlot[slot][n.Class()]++
			if limit, ok := res[n.Class()]; ok && perSlot[slot][n.Class()] > limit {
				return fmt.Errorf("sched: step slot %d uses %d %s units, limit %d",
					slot+1, perSlot[slot][n.Class()], n.Class(), limit)
			}
		}
	}
	return nil
}

// String renders the schedule as a step-by-step table, one line per control
// step listing the operations executing in it. Deterministic.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %q: %d steps", s.Graph.Name, s.Steps)
	if s.II != s.Steps {
		fmt.Fprintf(&b, " (II=%d)", s.II)
	}
	b.WriteByte('\n')
	for t := 1; t <= s.Steps; t++ {
		ops := s.OpsInStep(t)
		names := make([]string, 0, len(ops))
		for _, id := range ops {
			n := s.Graph.Node(id)
			names = append(names, fmt.Sprintf("%s(%s)", n.Name, n.Kind))
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  step %d: %s\n", t, strings.Join(names, " "))
	}
	return b.String()
}
