package flow

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/optimal"
	"repro/internal/power"
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
	c.Diag("schedule: %d steps, %d power managed muxes, units %v",
		pm.Schedule.Steps, pm.NumManaged(), pm.Resources)
	return nil
}

// BindPass maps the PM schedule onto execution units and registers.
type BindPass struct{}

// Name implements Pass.
func (BindPass) Name() string { return "bind" }

// Run implements Pass.
func (BindPass) Run(c *Context) error {
	if c.PM == nil {
		return errors.New("bind requires the schedule pass")
	}
	c.Binding = alloc.Bind(c.PM.Schedule, c.PM.Guards)
	c.Diag("bind: units %v, %d registers", c.Binding.Units, c.Binding.Registers)
	return nil
}

// ControllerPass builds the condition-qualified FSM controller.
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

// BaselinePass schedules, binds and builds the controller of the
// traditional (non power managed) flow at the same throughput — the "Orig"
// design every comparison measures against.
//
// When the schedule pass minimized hardware (no fixed Resources) and its
// graph carries no control edge, the baseline is the same scheduling
// problem: the same nodes, no edges, the same budget and II, and
// sched.Minimize is deterministic. No edge also means no managed mux and
// so no guards, and without guards the bound and controlled PM design
// differs from the baseline only in the controller's PM flag. The pass
// then takes the PM schedule, resources and binding as they are and
// copies the controller with PM cleared, building only what the bind and
// controller passes did not.
type BaselinePass struct{}

// Name implements Pass.
func (BaselinePass) Name() string { return "baseline" }

// Run implements Pass.
func (BaselinePass) Run(c *Context) error {
	var b *alloc.Binding
	var ctl *ctrl.Controller
	if c.PM != nil && c.Config.Resources == nil && len(c.PM.Graph.ControlEdges()) == 0 {
		c.BaselineSchedule, c.BaselineResources = c.PM.Schedule, c.PM.Resources
		b = c.Binding
		if b != nil && c.Controller != nil {
			cp := *c.Controller
			cp.PM = false
			ctl = &cp
		}
	} else {
		s, res, err := core.Baseline(c.Graph, c.Config.Budget, c.Config.II)
		if err != nil {
			return err
		}
		c.BaselineSchedule, c.BaselineResources = s, res
	}
	if b == nil {
		b = alloc.Bind(c.BaselineSchedule, nil)
	}
	if ctl == nil {
		var err error
		if ctl, err = ctrl.Build(c.BaselineSchedule, b, nil, false); err != nil {
			return err
		}
	}
	c.BaselineBinding = b
	c.BaselineController = ctl
	c.Diag("baseline: units %v", c.BaselineResources)
	return nil
}

// OptimalPass runs the exact minimum-power scheduling baseline for the
// point's budget, II and resources, warm-started from the heuristic
// schedule. Weights default to the paper's table (power.Weights) when the
// configuration leaves them nil, so the objective matches the Table II
// reporting.
type OptimalPass struct {
	// MaxExpansions bounds the branch-and-bound search; zero uses
	// optimal.DefaultMaxExpansions. A truncated search still returns a
	// schedule at least as good as the heuristic seed, plus a sound
	// lower bound in the certificate.
	MaxExpansions int
}

// Name implements Pass.
func (OptimalPass) Name() string { return "optimal-schedule" }

// Run implements Pass.
func (p OptimalPass) Run(c *Context) error {
	if c.PM == nil {
		return errors.New("optimal-schedule requires the schedule pass")
	}
	weights := c.Config.Weights
	if weights == nil {
		weights = power.Weights
	}
	r, err := optimal.Schedule(c.Graph, optimal.Config{
		Budget:        c.Config.Budget,
		II:            c.Config.II,
		Resources:     c.Config.Resources,
		Weights:       weights,
		MaxExpansions: p.MaxExpansions,
		Seed:          c.PM.Schedule.Time,
	})
	if err != nil {
		return err
	}
	c.Optimal = r
	status := "certified optimal"
	if !r.Cert.Optimal {
		status = fmt.Sprintf("lower bound %.4g after %d expansions", r.Cert.LowerBound, r.Cert.Expansions)
	}
	c.Diag("optimal-schedule: power %.4g (%s), %d guarded ops", r.Power, status, r.Gated)
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
	if !c.ActivityExact {
		c.Diag("activity: falling back to sampled analysis (too many selects for the exact enumeration)")
	}
	return nil
}
