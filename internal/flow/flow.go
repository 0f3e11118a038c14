package flow

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Context carries one configuration's inputs and every artifact the passes
// produce. A Context is used by one goroutine at a time while its pipeline
// runs; distinct Contexts may run concurrently even when they share the
// input Graph. Passes treat the input as read-only: the PM pass forks it
// when it commits control edges (cdfg.Graph.Fork), so PM.Graph shares the
// input's nodes, and is the input itself at a point that manages nothing
// under minimized hardware. Once the pipeline has finished, Controllers is
// safe for concurrent use.
type Context struct {
	// Ctx carries cancellation for long runs; nil means never canceled.
	//pmlint:allow spanpair the pipeline Context is the per-run carrier passes thread cancellation through; it lives exactly one Run and the sweep engine clears it before returning the Context
	Ctx context.Context

	// Graph is the input CDFG. Passes must not mutate it.
	Graph *cdfg.Graph
	// Width is the datapath bit width of the design.
	Width int
	// Config is the scheduling configuration under evaluation.
	Config core.Config

	// PM is the power management scheduling result (schedule pass).
	PM *core.Result
	// Binding maps the PM schedule onto execution units (bind pass).
	Binding *alloc.Binding
	// Controller is the condition-qualified FSM. The standard pipeline
	// leaves it nil, and Controllers builds it on first use with
	// ControllerPass; a pipeline that lists that pass builds it there.
	Controller *ctrl.Controller
	// BaselineSchedule/BaselineResources/BaselineBinding are the
	// traditional flow at the same throughput (baseline pass). When the
	// baseline pass finds the PM pass solved the same problem, they alias
	// PM.Schedule, PM.Resources and Binding: treat all three as read-only.
	BaselineSchedule  *sched.Schedule
	BaselineResources sched.Resources
	BaselineBinding   *alloc.Binding
	// BaselineController is the baseline design's FSM, built on first use
	// by Controllers.
	BaselineController *ctrl.Controller
	// Activity holds the exact per-node execution probabilities under the
	// equiprobable-select model (activity pass); ActivityExact reports
	// whether it was computed exactly.
	Activity      power.Activity
	ActivityExact bool

	// Err records the pipeline failure when the Context was produced by
	// the sweep engine (RunAllPipeline); a directly-run Pipeline returns
	// the error instead.
	Err error

	// controllers guards the one build of Controller and
	// BaselineController; controllersErr is its outcome.
	controllers    sync.Once
	controllersErr error
}

// Controllers returns the FSM controllers of the power managed and the
// baseline design, building them on the first call: RTL emission and the
// gate-level chips read them, but no Table II row does, so the standard
// pipeline leaves them unbuilt. The PM side runs ControllerPass unless a
// pipeline already did; the baseline side is ctrl.Build over the baseline
// schedule and binding. Every call returns the same controllers (or the
// same error), and concurrent calls build once.
func (c *Context) Controllers() (pm, baseline *ctrl.Controller, err error) {
	c.controllers.Do(func() { c.controllersErr = c.buildControllers() })
	return c.Controller, c.BaselineController, c.controllersErr
}

func (c *Context) buildControllers() error {
	if c.BaselineSchedule == nil || c.BaselineBinding == nil {
		return errors.New("flow: controllers require the schedule, bind and baseline passes")
	}
	if c.Controller == nil {
		if err := (ControllerPass{}).Run(c); err != nil {
			return err
		}
	}
	ctl, err := ctrl.Build(c.BaselineSchedule, c.BaselineBinding, nil, false)
	if err != nil {
		return err
	}
	c.BaselineController = ctl
	return nil
}

// canceled reports the cancellation state of the run.
func (c *Context) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Pass is one stage of the synthesis flow. Run reads earlier artifacts
// from the context and stores its own.
type Pass interface {
	// Name identifies the pass in spans and error messages.
	Name() string
	// Run executes the pass over the context.
	Run(c *Context) error
}

// Pipeline is an ordered sequence of passes.
type Pipeline struct {
	passes []Pass
}

// New composes a pipeline from the given passes.
func New(passes ...Pass) *Pipeline {
	return &Pipeline{passes: append([]Pass(nil), passes...)}
}

// Names returns the pass names in execution order.
func (p *Pipeline) Names() []string {
	out := make([]string, len(p.passes))
	for i, pass := range p.passes {
		out[i] = pass.Name()
	}
	return out
}

// Run executes the passes in order. The first pass error aborts the
// pipeline; cancellation of c.Ctx is checked between passes.
//
// When c.Ctx carries a telemetry.Trace, every pass records a
// "pass:<name>" span — the only pass clock. Spans only observe — an
// instrumented run produces byte-identical artifacts to an untraced one —
// and the disabled path (no trace in the context) allocates nothing.
func (p *Pipeline) Run(c *Context) error {
	if c == nil || c.Graph == nil {
		return errors.New("flow: nil context or graph")
	}
	for _, pass := range p.passes {
		if err := c.canceled(); err != nil {
			return fmt.Errorf("flow: canceled before pass %q: %w", pass.Name(), err)
		}
		_, sp := telemetry.StartSpan(c.Ctx, "pass:"+pass.Name())
		if err := pass.Run(c); err != nil {
			sp.SetAttr("err", err.Error())
			sp.End()
			return fmt.Errorf("flow: pass %q: %w", pass.Name(), err)
		}
		sp.End()
	}
	return nil
}

// Standard returns the canonical pipeline of the paper's flow: schedule for
// shut-down, bind, schedule and bind the traditional baseline, and analyze
// switching activity — exactly what a Table II row reads. The controllers
// come on demand from Context.Controllers.
func Standard() *Pipeline {
	return New(SchedulePass{}, BindPass{}, BaselinePass{}, ActivityPass{})
}
