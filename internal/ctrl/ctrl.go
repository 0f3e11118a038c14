package ctrl

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Load is one register-bank load enable.
type Load struct {
	// Node owns the value register (an operation or primary input).
	Node cdfg.NodeID
	// Step is the cycle at whose closing clock edge the register
	// latches. Step 0 is the operand-load prologue (inputs).
	Step int
	// Guards qualify the enable; empty means unconditional.
	Guards []sim.Guard
}

// UnitLoad is the input-register load enable of one execution unit for one
// scheduled operation.
type UnitLoad struct {
	// Unit is the executing unit.
	Unit alloc.Unit
	// Op is the operation whose operands are loaded.
	Op cdfg.NodeID
	// Step is the cycle at whose closing edge the unit's operand
	// registers latch: one cycle before the op executes.
	Step int
	// Guards qualify the enable (the power management mechanism).
	Guards []sim.Guard
}

// Controller is the generated FSM description.
type Controller struct {
	// Graph, Schedule, Binding are the inputs the FSM controls.
	Graph    *cdfg.Graph
	Schedule *sched.Schedule
	Binding  *alloc.Binding
	// PM reports whether load enables carry guards.
	PM bool
	// Steps is the number of execution cycles; the FSM has Steps+1
	// states (state 0 loads the primary operands).
	Steps int
	// Loads lists all value-register enables, sorted by (step, node).
	Loads []Load
	// UnitLoads lists all unit input-register enables, sorted by
	// (step, op).
	UnitLoads []UnitLoad
}

// Build generates the controller. With pm false the guards are dropped —
// the "Orig" design of Table III, which loads every scheduled register
// unconditionally.
func Build(s *sched.Schedule, b *alloc.Binding, guards sim.Guards, pm bool) (*Controller, error) {
	g := s.Graph
	c := &Controller{
		Graph:    g,
		Schedule: s,
		Binding:  b,
		PM:       pm,
		Steps:    s.Steps,
	}

	guardsOf := func(id cdfg.NodeID) []sim.Guard {
		if !pm {
			return nil
		}
		return append([]sim.Guard(nil), guards[id]...)
	}

	// Primary inputs latch in the prologue.
	for _, id := range g.Inputs() {
		c.Loads = append(c.Loads, Load{Node: id, Step: 0})
	}
	// Every operation's result register latches at its execution step,
	// and its unit's operand registers latch one cycle earlier.
	for _, n := range g.Nodes() {
		if !n.IsOp() {
			continue
		}
		t := s.Time[n.ID]
		if t < 1 || t > s.Steps {
			return nil, fmt.Errorf("ctrl: op %q scheduled at %d outside [1,%d]", n.Name, t, s.Steps)
		}
		c.Loads = append(c.Loads, Load{Node: n.ID, Step: t, Guards: guardsOf(n.ID)})
		u, ok := b.Lookup(n.ID)
		if !ok {
			return nil, fmt.Errorf("ctrl: op %q has no unit", n.Name)
		}
		c.UnitLoads = append(c.UnitLoads, UnitLoad{
			Unit:   u,
			Op:     n.ID,
			Step:   t - 1,
			Guards: guardsOf(n.ID),
		})
	}
	slices.SortFunc(c.Loads, func(a, b Load) int {
		if a.Step != b.Step {
			return cmp.Compare(a.Step, b.Step)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	slices.SortFunc(c.UnitLoads, func(a, b UnitLoad) int {
		if a.Step != b.Step {
			return cmp.Compare(a.Step, b.Step)
		}
		return cmp.Compare(a.Op, b.Op)
	})
	return c, nil
}

// Activations simulates the controller's gating decisions for one sample,
// given the condition values that the datapath would produce. It returns,
// per node, whether the node's registers load during the sample. A guard
// whose select never loads (it was itself gated off) disables its ops.
func (c *Controller) Activations(conds map[cdfg.NodeID]bool) map[cdfg.NodeID]bool {
	loaded := make(map[cdfg.NodeID]bool)
	for _, id := range c.Graph.Inputs() {
		loaded[id] = true
	}
	// Process loads in step order: a guard's select must have loaded in
	// an earlier step (the scheduling constraint guarantees this).
	for _, ld := range c.Loads {
		if ld.Step == 0 {
			continue
		}
		ok := true
		for _, gd := range ld.Guards {
			if !loaded[gd.Sel] {
				ok = false
				break
			}
			if conds[gd.Sel] != gd.WhenTrue {
				ok = false
				break
			}
		}
		if ok {
			loaded[ld.Node] = true
		}
	}
	return loaded
}

// Unit is one execution unit with the operand loads it hosts.
type Unit struct {
	Unit  alloc.Unit
	Loads []UnitLoad
}

// Units groups UnitLoads by unit, in (class, index) order. Within a unit
// the loads keep their UnitLoads order. The RTL lowering (internal/hdl)
// builds each unit's operand steering from it.
func (c *Controller) Units() []Unit {
	loads := slices.Clone(c.UnitLoads)
	slices.SortStableFunc(loads, func(a, b UnitLoad) int {
		return cmp.Or(cmp.Compare(a.Unit.Class, b.Unit.Class), cmp.Compare(a.Unit.Index, b.Unit.Index))
	})
	var out []Unit
	for start := 0; start < len(loads); {
		end := start + 1
		for end < len(loads) && loads[end].Unit == loads[start].Unit {
			end++
		}
		out = append(out, Unit{Unit: loads[start].Unit, Loads: loads[start:end:end]})
		start = end
	}
	return out
}
