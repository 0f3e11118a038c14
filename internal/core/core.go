package core

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Order selects the multiplexor processing order (paper §III and §IV.A).
type Order int

const (
	// OrderOutputsFirst processes muxes closest to the outputs first,
	// the paper's default: managing an outer mux shuts down the largest
	// cone.
	OrderOutputsFirst Order = iota
	// OrderInputsFirst processes muxes closest to the inputs first; an
	// ablation showing why the paper chose outputs-first.
	OrderInputsFirst
	// OrderGreedyWeight processes muxes in decreasing order of the
	// power weight of their gateable cones (the §IV.A reordering
	// pre-process).
	OrderGreedyWeight
)

// String names the order strategy.
func (o Order) String() string {
	switch o {
	case OrderOutputsFirst:
		return "outputs-first"
	case OrderInputsFirst:
		return "inputs-first"
	case OrderGreedyWeight:
		return "greedy-weight"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// ParseOrder resolves an order name as String spells it. The empty name
// is the default, OrderOutputsFirst.
func ParseOrder(name string) (Order, error) {
	if name == "" {
		return OrderOutputsFirst, nil
	}
	for o := OrderOutputsFirst; o <= OrderGreedyWeight; o++ {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown order %q (valid: %v, %v, %v)",
		name, OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight)
}

// Config parameterizes the power management scheduling run.
type Config struct {
	// Budget is the number of control steps allowed per sample (the
	// throughput constraint). It must be at least the critical path.
	Budget int
	// II is the initiation interval for pipelined schedules; zero means
	// II == Budget (no pipelining). A two-stage pipeline over a budget
	// of 2T uses II = T (paper §IV.B).
	II int
	// Order is the multiplexor processing order.
	Order Order
	// Resources, when non-nil, fixes the available execution units;
	// when nil the scheduler minimizes hardware for the given budget,
	// as HYPER does.
	Resources sched.Resources
	// Weights gives the per-class power weight used by the reordering
	// strategies (nil weights make every operation count 1). The
	// canonical table lives in internal/power.
	Weights map[cdfg.Class]float64
}

func (c Config) ii() int {
	if c.II == 0 {
		return c.Budget
	}
	return c.II
}

// ManagedMux records one multiplexor selected for power management.
type ManagedMux struct {
	// Mux is the multiplexor node.
	Mux cdfg.NodeID
	// Sel is the node producing the controlling signal (the "last node
	// in the control input fanin").
	Sel cdfg.NodeID
	// GatedTrue and GatedFalse are the operations shut down when the
	// select steers the other way, per branch.
	GatedTrue, GatedFalse []cdfg.NodeID
}

// GatedCount returns the total number of gated operations for the mux.
func (m ManagedMux) GatedCount() int { return len(m.GatedTrue) + len(m.GatedFalse) }

// Result is the outcome of power management scheduling.
type Result struct {
	// Graph is the scheduled graph: a fork of the input (see
	// cdfg.Graph.Fork) with the pass's control edges inserted, or the
	// input itself when no mux was managed and Resources was nil. Treat
	// it as read-only.
	Graph *cdfg.Graph
	// Schedule is the final schedule on Graph.
	Schedule *sched.Schedule
	// Resources is the execution-unit bag the schedule fits in.
	Resources sched.Resources
	// Managed lists the power managed muxes in processing order.
	Managed []ManagedMux
	// Guards maps every gated operation to its (possibly nested)
	// gating conditions, in the format the simulator and the
	// controller generator consume.
	Guards sim.Guards
	// Order is the processing order actually used.
	Order Order
}

// NumManaged returns the number of power managed multiplexors (the
// "P.Man. Muxs" column of Table II).
func (r *Result) NumManaged() int { return len(r.Managed) }

// GatedOps returns the set of all gated operations.
func (r *Result) GatedOps() cdfg.NodeSet {
	s := make(cdfg.NodeSet)
	for id := range r.Guards {
		s[id] = true
	}
	return s
}

// Baseline schedules g without any power management, the "traditional
// method" the paper compares against: minimum hardware for the given
// throughput, no control edges. An input without control edges is
// scheduled as it is, so the schedule's graph is g; otherwise it is a
// fork with the edges cleared. g is not modified. The scheduler takes the
// pre-pass window, which on a graph without control edges follows from
// g's memoized depth and height (see sched.Window.Compute).
func Baseline(g *cdfg.Graph, budget, ii int) (*sched.Schedule, sched.Resources, error) {
	work := g
	if len(g.ControlEdges()) > 0 {
		work = g.Fork()
		work.ClearControlEdges()
	}
	if ii == 0 {
		ii = budget
	}
	return sched.Minimize(work, budget, ii)
}
