package flow

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
)

// SchedulePass runs the power management scheduling algorithm (paper
// Fig. 3) and stores the Result.
type SchedulePass struct{}

// Name implements Pass.
func (SchedulePass) Name() string { return "schedule" }

// Run implements Pass.
func (SchedulePass) Run(c *Context) error {
	pm, err := core.Schedule(c.Graph, c.Config)
	if err != nil {
		return err
	}
	c.PM = pm
	return nil
}

// BindPass maps the PM schedule onto execution units.
type BindPass struct{}

// Name implements Pass.
func (BindPass) Name() string { return "bind" }

// Run implements Pass.
func (BindPass) Run(c *Context) error {
	if c.PM == nil {
		return errors.New("bind requires the schedule pass")
	}
	b, err := bind(c.PM.Schedule, c.PM.Guards)
	if err != nil {
		return err
	}
	c.Binding = b
	return nil
}

// bind runs alloc.Bind between the two per-operation invariants the
// controller generator relies on, checked at every point whether or not a
// controller is ever built: each operation executes in a step of
// [1, Steps], which Bind itself requires, and is bound to a unit.
func bind(s *sched.Schedule, guards sim.Guards) (*alloc.Binding, error) {
	for _, n := range s.Graph.Nodes() {
		if t := s.Time[n.ID]; n.IsOp() && (t < 1 || t > s.Steps) {
			return nil, fmt.Errorf("op %q scheduled at %d outside [1,%d]", n.Name, t, s.Steps)
		}
	}
	b := alloc.Bind(s, guards)
	if err := checkBound(s, b); err != nil {
		return nil, err
	}
	return b, nil
}

// checkBound reports the first operation b leaves without a unit.
func checkBound(s *sched.Schedule, b *alloc.Binding) error {
	for _, n := range s.Graph.Nodes() {
		if _, ok := b.Lookup(n.ID); n.IsOp() && !ok {
			return fmt.Errorf("op %q has no unit", n.Name)
		}
	}
	return nil
}

// ControllerPass builds the condition-qualified FSM controller. The
// standard pipeline does not list it: Context.Controllers runs it on
// demand.
type ControllerPass struct{}

// Name implements Pass.
func (ControllerPass) Name() string { return "controller" }

// Run implements Pass.
func (ControllerPass) Run(c *Context) error {
	if c.PM == nil || c.Binding == nil {
		return errors.New("controller requires the schedule and bind passes")
	}
	ctl, err := ctrl.Build(c.PM.Schedule, c.Binding, c.PM.Guards, true)
	if err != nil {
		return err
	}
	c.Controller = ctl
	return nil
}

// BaselinePass schedules and binds the traditional (non power managed)
// flow at the same throughput — the "Orig" design every comparison
// measures against.
//
// When the schedule pass minimized hardware (no fixed Resources) and its
// graph carries no control edge, the baseline is the same scheduling
// problem: the same nodes, no edges, the same budget and II, and
// sched.Minimize is deterministic. No edge also means no managed mux and
// so no guards, and without guards the PM binding is the baseline's. The
// pass then takes the PM schedule, resources and binding as they are.
type BaselinePass struct{}

// Name implements Pass.
func (BaselinePass) Name() string { return "baseline" }

// Run implements Pass.
func (BaselinePass) Run(c *Context) error {
	if c.PM != nil && c.Binding != nil && c.Config.Resources == nil && len(c.PM.Graph.ControlEdges()) == 0 {
		c.BaselineSchedule, c.BaselineResources, c.BaselineBinding = c.PM.Schedule, c.PM.Resources, c.Binding
		return nil
	}
	s, res, err := core.Baseline(c.Graph, c.Config.Budget, c.Config.II)
	if err != nil {
		return err
	}
	b, err := bind(s, nil)
	if err != nil {
		return err
	}
	c.BaselineSchedule, c.BaselineResources, c.BaselineBinding = s, res, b
	return nil
}

// ActivityPass computes the exact per-node execution probabilities of the
// gated design under the equiprobable-select model.
type ActivityPass struct{}

// Name implements Pass.
func (ActivityPass) Name() string { return "activity" }

// Run implements Pass.
func (ActivityPass) Run(c *Context) error {
	if c.PM == nil {
		return errors.New("activity requires the schedule pass")
	}
	c.Activity, c.ActivityExact = power.AnalyzeExact(c.PM.Graph, c.PM.Guards)
	return nil
}
