package pmsynth

// Design-space sweep API: evaluate many synthesis configurations of one
// design concurrently through the pass-pipeline engine (internal/flow) and
// query the result table for the best or Pareto-optimal operating points.
// This is how the paper's Tables II/III question — how do savings evolve
// across step budgets, initiation intervals and mux orders — is asked
// programmatically.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/flow"
)

// SweepSpec enumerates the configurations of a design-space sweep as the
// cross product of its axes. Zero-valued axes default to a single neutral
// entry, so the zero SweepSpec evaluates exactly one configuration at the
// design's critical path.
type SweepSpec struct {
	// Budgets lists the control-step budgets to evaluate. When nil, the
	// inclusive range BudgetMin..BudgetMax is used; when that is empty
	// too, the design's critical path is the single budget.
	Budgets []int
	// BudgetMin and BudgetMax define an inclusive budget range used when
	// Budgets is nil.
	BudgetMin, BudgetMax int
	// IIs lists pipeline initiation intervals; 0 means no pipelining.
	// Nil defaults to {0}.
	IIs []int
	// Orders lists mux processing orders. Nil defaults to
	// {OrderOutputsFirst}.
	Orders []Order
	// Resources lists execution-unit budgets; a nil or empty entry lets
	// the scheduler minimize hardware. Nil defaults to {nil}.
	Resources []map[cdfg.Class]int
	// Workers bounds the evaluation pool; <= 0 uses GOMAXPROCS. The
	// worker count never affects the results, only the wall-clock time.
	Workers int
}

// Enumerate expands the spec into the concrete option sets, in
// deterministic order (budgets outermost, then IIs, orders, resources).
func (s SweepSpec) Enumerate(d *Design) ([]Options, error) {
	budgets := s.Budgets
	if budgets == nil {
		lo, hi := s.BudgetMin, s.BudgetMax
		if lo == 0 && hi == 0 {
			cp, err := d.Graph.CriticalPath()
			if err != nil {
				return nil, err
			}
			lo, hi = cp, cp
		}
		if lo < 1 || hi < lo {
			return nil, fmt.Errorf("pmsynth: bad budget range %d..%d", lo, hi)
		}
		for b := lo; b <= hi; b++ {
			budgets = append(budgets, b)
		}
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("pmsynth: sweep enumerates no budgets")
	}
	iis := s.IIs
	if len(iis) == 0 {
		iis = []int{0}
	}
	orders := s.Orders
	if len(orders) == 0 {
		orders = []Order{OrderOutputsFirst}
	}
	resources := s.Resources
	if len(resources) == 0 {
		resources = []map[cdfg.Class]int{nil}
	}
	var out []Options
	for _, b := range budgets {
		for _, ii := range iis {
			for _, o := range orders {
				for _, res := range resources {
					out = append(out, Options{Budget: b, II: ii, Order: o, Resources: res})
				}
			}
		}
	}
	return out, nil
}

// SweepPoint is one evaluated configuration.
type SweepPoint struct {
	// Options is the configuration.
	Options Options
	// Synthesis holds the full artifacts when the run succeeded.
	Synthesis *Synthesis
	// Row is the Table II style summary (zero when Err is set).
	Row Row
	// Err records a per-configuration failure (e.g. a budget below the
	// critical path, or an initiation interval above the budget).
	Err error
}

// SweepResult is the full result table of a sweep.
type SweepResult struct {
	// Design is the swept design.
	Design *Design
	// Points lists one entry per enumerated configuration, in
	// enumeration order.
	Points []SweepPoint
}

// Sweep evaluates every configuration of the spec concurrently and returns
// the full result table. Results are deterministic: identical to running
// Synthesize per configuration serially, in enumeration order.
func Sweep(d *Design, spec SweepSpec) (*SweepResult, error) {
	return SweepContext(context.Background(), d, spec)
}

// SweepContext is Sweep with cancellation: when ctx is canceled the sweep
// stops handing out configurations, waits for in-flight evaluations, and
// returns ctx's error.
func SweepContext(ctx context.Context, d *Design, spec SweepSpec) (*SweepResult, error) {
	return SweepContextProgress(ctx, d, spec, nil)
}

// SweepProgress receives sweep completion ticks: done configurations out
// of total. It is called once with done == 0 before evaluation starts and
// then once per finished configuration. Calls after the initial tick come
// from the sweep's worker goroutines, so the function must be safe for
// concurrent use; done values observed by any single call are not
// guaranteed to arrive in order (consumers that need monotonic progress
// should keep a high-water mark, as the pmsynthd job manager does).
type SweepProgress func(done, total int)

// SweepContextProgress is SweepContext with live progress reporting. A nil
// progress function makes it identical to SweepContext; a non-nil one
// never changes the results, only observes them.
func SweepContextProgress(ctx context.Context, d *Design, spec SweepSpec, progress SweepProgress) (*SweepResult, error) {
	if d == nil || d.Graph == nil {
		return nil, fmt.Errorf("pmsynth: nil design")
	}
	opts, err := spec.Enumerate(d)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, len(opts))
	for i, o := range opts {
		cfgs[i] = o.coreConfig()
	}
	var observe func(int, *flow.Context)
	if progress != nil {
		total := len(cfgs)
		progress(0, total)
		var done atomic.Int64
		observe = func(int, *flow.Context) {
			progress(int(done.Add(1)), total)
		}
	}
	ctxs, err := flow.RunAllPipelineObserved(ctx, nil, d.Graph, d.Width, cfgs, spec.Workers, observe)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Design: d, Points: make([]SweepPoint, len(opts))}
	for i, fc := range ctxs {
		p := &res.Points[i]
		p.Options = opts[i]
		if fc == nil {
			p.Err = fmt.Errorf("pmsynth: configuration not evaluated")
			continue
		}
		if fc.Err != nil {
			p.Err = fc.Err
			continue
		}
		p.Synthesis = newSynthesis(d, fc)
		p.Row = p.Synthesis.Row()
	}
	return res, nil
}

// Objective scores a summary row; higher is better. Use with Best.
type Objective func(Row) float64

// Canonical sweep objectives.
var (
	// MaxPowerReduction prefers the largest datapath power saving.
	MaxPowerReduction Objective = func(r Row) float64 { return r.PowerReductionPct }
	// MinAreaIncrease prefers the smallest area ratio.
	MinAreaIncrease Objective = func(r Row) float64 { return -r.AreaIncrease }
	// MinSteps prefers the tightest throughput.
	MinSteps Objective = func(r Row) float64 { return -float64(r.Steps) }
)

// Best returns the successful point maximizing the objective. The ordering
// is explicitly deterministic: when two points score equally, the one with
// the lower enumeration index wins — i.e. the earliest configuration in
// SweepSpec.Enumerate order (budgets outermost, then IIs, orders,
// resources), which never depends on worker count or completion timing.
// Points whose objective evaluates to NaN are skipped, so one undefined
// score can never poison the comparison chain. Best returns nil when every
// point failed or scored NaN.
func (sr *SweepResult) Best(obj Objective) *SweepPoint {
	best := -1
	var bestScore float64
	for i := range sr.Points {
		p := &sr.Points[i]
		if p.Err != nil {
			continue
		}
		score := obj(p.Row)
		if math.IsNaN(score) {
			continue
		}
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return nil
	}
	return &sr.Points[best]
}

// Pareto returns the non-dominated successful points of the sweep under
// the three natural criteria: maximize power reduction, minimize area
// increase, minimize steps. A point is dominated when another point is at
// least as good on all three and strictly better on one. Points appear in
// enumeration order.
func (sr *SweepResult) Pareto() []*SweepPoint {
	dominates := func(a, b Row) bool {
		if a.PowerReductionPct < b.PowerReductionPct ||
			a.AreaIncrease > b.AreaIncrease || a.Steps > b.Steps {
			return false
		}
		return a.PowerReductionPct > b.PowerReductionPct ||
			a.AreaIncrease < b.AreaIncrease || a.Steps < b.Steps
	}
	var out []*SweepPoint
	for i := range sr.Points {
		p := &sr.Points[i]
		if p.Err != nil {
			continue
		}
		dominated := false
		for j := range sr.Points {
			q := &sr.Points[j]
			if j == i || q.Err != nil {
				continue
			}
			if dominates(q.Row, p.Row) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// Table formats the sweep as a Table II style listing, one line per
// configuration. It is safe on a zero SweepResult.
func (sr *SweepResult) Table() string {
	name := "(none)"
	if sr.Design != nil && sr.Design.Graph != nil {
		name = sr.Design.Graph.Name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SWEEP %s — %d configurations\n", name, len(sr.Points))
	b.WriteString("Budget  II  Order           Steps " + cellsHeader + "\n")
	for i := range sr.Points {
		p := &sr.Points[i]
		o := p.Options
		fmt.Fprintf(&b, "%6d %3d  %-14s  ", o.Budget, o.II, o.Order)
		if p.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", p.Err)
			continue
		}
		fmt.Fprintf(&b, "%5d %s\n", p.Row.Steps, p.Row.cells())
	}
	return b.String()
}
