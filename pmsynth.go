package pmsynth

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/cdfg"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/flow"
	"repro/internal/optimal"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/sched"
	"repro/internal/silage"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// Design is a compiled behavioral description.
type Design = silage.Design

// Order selects the multiplexor processing order (paper §III, §IV.A).
type Order = core.Order

// Mux processing orders.
const (
	// OrderOutputsFirst is the paper's default.
	OrderOutputsFirst = core.OrderOutputsFirst
	// OrderInputsFirst is the ablation order.
	OrderInputsFirst = core.OrderInputsFirst
	// OrderGreedyWeight is the §IV.A reordering heuristic.
	OrderGreedyWeight = core.OrderGreedyWeight
)

// ParseOrder resolves an order name as Order.String spells it
// ("outputs-first", "inputs-first", "greedy-weight"). The empty name is
// the default, OrderOutputsFirst.
func ParseOrder(name string) (Order, error) { return core.ParseOrder(name) }

// Weights is the paper's relative power cost table (MUX 1, COMP 4, +/- 3,
// * 20).
var Weights = power.Weights

// Compile parses and elaborates a Silage-style source text.
func Compile(src string) (*Design, error) { return silage.Compile(src) }

// MustCompile is Compile for statically known-good sources.
func MustCompile(src string) *Design { return silage.MustCompile(src) }

// Options configures Synthesize.
type Options struct {
	// Budget is the number of control steps per sample (throughput
	// constraint). It must be at least the critical path.
	Budget int
	// II is the pipeline initiation interval; 0 means no pipelining
	// (II = Budget). See paper §IV.B.
	II int
	// Order is the mux processing order (default outputs-first).
	Order Order
	// Resources optionally fixes the execution-unit budget per class;
	// nil or empty lets the scheduler minimize hardware.
	Resources map[cdfg.Class]int
}

// coreConfig translates the public Options into the scheduler's Config.
func (opt Options) coreConfig() core.Config {
	var res sched.Resources
	if len(opt.Resources) > 0 {
		res = make(sched.Resources, len(opt.Resources))
		for c, n := range opt.Resources {
			res[c] = n
		}
	}
	return core.Config{
		Budget:    opt.Budget,
		II:        opt.II,
		Order:     opt.Order,
		Resources: res,
		Weights:   power.Weights,
	}
}

// Synthesis is the result of the full flow on one design.
type Synthesis struct {
	// Design is the compiled input.
	Design *Design
	// Flow is the pass-pipeline context that produced the synthesis: all
	// artifacts below alias it, and it builds the controllers on demand.
	Flow *flow.Context
	// PM is the power management scheduling result.
	PM *core.Result
	// Binding maps the PM schedule onto execution units.
	Binding *alloc.Binding
	// Baseline artifacts: the traditional flow at the same throughput.
	BaselineSchedule *sched.Schedule
	BaselineBinding  *alloc.Binding
	// Activity holds the exact per-node execution probabilities under
	// the equiprobable-select model.
	Activity power.Activity
	// ActivityExact reports whether Activity was computed exactly.
	ActivityExact bool
}

// newSynthesis projects a completed pipeline context into the public
// Synthesis shape.
func newSynthesis(d *Design, fc *flow.Context) *Synthesis {
	return &Synthesis{
		Design:           d,
		Flow:             fc,
		PM:               fc.PM,
		Binding:          fc.Binding,
		BaselineSchedule: fc.BaselineSchedule,
		BaselineBinding:  fc.BaselineBinding,
		Activity:         fc.Activity,
		ActivityExact:    fc.ActivityExact,
	}
}

// Synthesize runs the complete power management flow: a thin wrapper over
// the standard pass pipeline in internal/flow.
func Synthesize(d *Design, opt Options) (*Synthesis, error) {
	if d == nil || d.Graph == nil {
		return nil, fmt.Errorf("pmsynth: nil design")
	}
	fc := &flow.Context{Graph: d.Graph, Width: d.Width, Config: opt.coreConfig()}
	if err := flow.Standard().Run(fc); err != nil {
		return nil, err
	}
	return newSynthesis(d, fc), nil
}

// Row is a Table II style summary row.
type Row struct {
	Circuit      string
	Steps        int
	PMMuxes      int
	AreaIncrease float64
	// Expected executions per computation, under equiprobable selects.
	Mux, Comp, Add, Sub, Mul float64
	// PowerReductionPct is the datapath power saving in percent.
	PowerReductionPct float64
}

// RowHeader is Table II's column header, the one Row.String lines up
// under.
const RowHeader = "Circuit  Steps " + cellsHeader

// cellsHeader heads the columns Row.cells formats.
const cellsHeader = "PM  Area    MUX   COMP      +      -      *    PowerRed"

// String formats the row like the paper's Table II.
func (r Row) String() string {
	return fmt.Sprintf("%-8s %3d  %s", r.Circuit, r.Steps, r.cells())
}

// cells formats the row from its PM column on: the columns Row.String and
// (*SweepResult).Table share, under cellsHeader.
func (r Row) cells() string {
	return fmt.Sprintf("%2d  %.2f  %6.2f %6.2f %6.2f %6.2f %6.2f  %6.2f%%",
		r.PMMuxes, r.AreaIncrease, r.Mux, r.Comp, r.Add, r.Sub, r.Mul, r.PowerReductionPct)
}

// Row computes the Table II summary of the synthesis.
func (s *Synthesis) Row() Row {
	ops := s.Activity.ExpectedOps(s.PM.Graph)
	return Row{
		Circuit:           s.Design.Graph.Name,
		Steps:             s.PM.Schedule.Steps,
		PMMuxes:           s.PM.NumManaged(),
		AreaIncrease:      alloc.AreaIncrease(s.Binding, s.BaselineBinding, s.Design.Width),
		Mux:               ops[cdfg.ClassMux],
		Comp:              ops[cdfg.ClassComp],
		Add:               ops[cdfg.ClassAdd],
		Sub:               ops[cdfg.ClassSub],
		Mul:               ops[cdfg.ClassMul],
		PowerReductionPct: 100 * power.Reduction(s.PM.Graph, s.Activity, power.Weights),
	}
}

// Optimal runs the exact minimum-power scheduler on the design at this
// synthesis's budget, II and resources, under the paper's weights, and
// warm-started from the heuristic schedule, so the result's power never
// exceeds the heuristic's. maxExpansions bounds the branch-and-bound
// search; 0 uses optimal.DefaultMaxExpansions, and a truncated search
// reports a sound lower bound in its certificate. The solver is an oracle
// that studies one synthesis, not a stage of the flow: Synthesize and
// Sweep never run it.
func (s *Synthesis) Optimal(maxExpansions int) (*optimal.Result, error) {
	cfg := s.Flow.Config
	return optimal.Schedule(s.Design.Graph, optimal.Config{
		Budget:        cfg.Budget,
		II:            cfg.II,
		Resources:     cfg.Resources,
		MaxExpansions: maxExpansions,
		Seed:          s.PM.Schedule.Time,
	})
}

// WeightedPower returns the expected weighted operations per sample of
// the power-managed schedule under the paper's weights: the quantity
// Optimal's solver minimizes, and the heuristic side of GapPct.
func (s *Synthesis) WeightedPower() float64 {
	return s.Activity.WeightedPower(s.PM.Graph, power.Weights)
}

// GapPct returns the optimality gap of a heuristic schedule against an
// exact one, in percent of the heuristic's weighted power:
// 100*(heuristic-optimal)/heuristic, or 0 when heuristic is 0. The
// optimality table, pmsched -optimal and the verification oracle's
// summary all report it.
func GapPct(heuristic, optimal float64) float64 {
	if heuristic <= 0 {
		return 0
	}
	return 100 * (heuristic - optimal) / heuristic
}

// Controller returns the condition-qualified FSM of the power managed
// design. It is built on the first call to Controller or to any method
// that emits RTL or builds chips, and shared by every later one; a Row
// never reads it. Concurrent calls are safe.
func (s *Synthesis) Controller() (*ctrl.Controller, error) {
	c, _, err := s.Flow.Controllers()
	return c, err
}

// VHDL emits the power managed design (datapath, controller, top).
func (s *Synthesis) VHDL() (string, error) {
	c, err := s.Controller()
	if err != nil {
		return "", err
	}
	return vhdl.Generate(c, s.Design.Width)
}

// BaselineVHDL emits the traditional design at the same throughput.
func (s *Synthesis) BaselineVHDL() (string, error) {
	_, c, err := s.Flow.Controllers()
	if err != nil {
		return "", err
	}
	return vhdl.Generate(c, s.Design.Width)
}

// Verilog emits the power managed design in Verilog-2001.
func (s *Synthesis) Verilog() (string, error) {
	c, err := s.Controller()
	if err != nil {
		return "", err
	}
	return verilog.Generate(c, s.Design.Width)
}

// DOT renders the scheduled CDFG (control edges dashed) in Graphviz
// format.
func (s *Synthesis) DOT() string { return s.PM.Graph.DOT() }

// GateLevelReport builds both gate-level chips and measures switching
// activity over the given number of random samples: one Table III row.
func (s *Synthesis) GateLevelReport(samples int, seed int64) (chip.Report, error) {
	return s.GateLevelReportRand(samples, rand.New(rand.NewSource(seed)))
}

// GateLevelReportRand is GateLevelReport with an injectable random vector
// source, so measurements stay reproducible no matter which sweep worker
// runs them. The chips are built from this synthesis's own controllers —
// no part of the flow is re-run.
func (s *Synthesis) GateLevelReportRand(samples int, rnd *rand.Rand) (chip.Report, error) {
	pm, base, err := s.Flow.Controllers()
	if err != nil {
		return chip.Report{}, err
	}
	vectors := chip.RandomVectors(s.Design.Graph, s.Design.Width, samples, rnd)
	return chip.Compare(pm, base, s.Design.Width, vectors)
}

// DumpVCD simulates the power managed gate-level chip for the given number
// of random samples and writes a Value Change Dump of the design's inputs
// and outputs to w (viewable in GTKWave).
func (s *Synthesis) DumpVCD(samples int, seed int64, w io.Writer) error {
	return s.DumpVCDRand(samples, rand.New(rand.NewSource(seed)), w)
}

// DumpVCDRand is DumpVCD with an injectable random vector source.
func (s *Synthesis) DumpVCDRand(samples int, rnd *rand.Rand, w io.Writer) error {
	c, err := s.Controller()
	if err != nil {
		return err
	}
	ch, err := chip.Build(c, s.Design.Width)
	if err != nil {
		return err
	}
	tb, err := ch.NewTestbench()
	if err != nil {
		return err
	}
	rec := rtl.NewVCDRecorder(tb, w)
	g := s.Design.Graph
	for name, bus := range ch.Netlist.InputNames() {
		if err := rec.Watch("in_"+name, bus); err != nil {
			return err
		}
	}
	for _, id := range g.Outputs() {
		name := silage.PortName(g.Node(id).Name)
		if err := rec.Watch("out_"+name, ch.Netlist.OutputBus(name)); err != nil {
			return err
		}
	}
	for i := 0; i < samples; i++ {
		in := make(map[string]int64, len(g.Inputs()))
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = chip.RandomWord(rnd, s.Design.Width)
		}
		for name, v := range in {
			if err := tb.SetInput(name, v); err != nil {
				return err
			}
		}
		tb.Propagate()
		for c := 0; c < ch.CyclesPerSample; c++ {
			if err := rec.Sample(); err != nil {
				return err
			}
			tb.Step()
		}
	}
	return rec.Sample()
}

// Verify checks output equivalence of the gated schedule against the
// reference interpreter on n pseudo-random input vectors. Both simulators
// are compiled once; a gated program that does not compile fails on the
// first vector, as an execution would.
func (s *Synthesis) Verify(n int, seed int64) error {
	g := s.Design.Graph
	opt := sim.Options{Width: s.Design.Width}
	ref, err := sim.Compile(g, opt)
	if err != nil {
		return err
	}
	gated, gatedErr := sim.CompileScheduled(s.PM.Schedule, s.PM.Guards, opt)
	for _, in := range chip.RandomVectors(g, s.Design.Width, n, rand.New(rand.NewSource(seed))) {
		want, err := ref.Eval(in)
		if err != nil {
			return err
		}
		got, err := sim.Result{}, gatedErr
		if err == nil {
			got, err = gated.Run(in)
		}
		if err != nil {
			return fmt.Errorf("pmsynth: gated execution failed on %v: %w", in, err)
		}
		for k, v := range want {
			if got.Outputs[k] != v {
				return fmt.Errorf("pmsynth: output %s mismatch on %v: gated %d, reference %d",
					k, in, got.Outputs[k], v)
			}
		}
	}
	return nil
}

// Evaluate runs the compiled behavior on one input vector (reference
// semantics, masked to the design width). Outputs are keyed by port name.
func Evaluate(d *Design, inputs map[string]int64) (map[string]int64, error) {
	raw, err := sim.Evaluate(d.Graph, inputs, sim.Options{Width: d.Width})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		out[silage.PortName(k)] = v
	}
	return out, nil
}

// CriticalPath returns the design's minimum feasible control-step count.
func CriticalPath(d *Design) (int, error) { return d.Graph.CriticalPath() }

// Explain reports, per multiplexor, whether power management succeeded at
// the given budget and why not otherwise — the designer-facing diagnostic
// for deciding between relaxing throughput and restructuring the behavior.
func Explain(d *Design, opt Options) (string, error) {
	reports, err := core.Explain(d.Graph, opt.coreConfig())
	if err != nil {
		return "", err
	}
	return core.FormatReports(d.Graph, reports), nil
}
