package verify

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	pmsynth "repro"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/optimal"
	"repro/internal/power"
	"repro/internal/sim"
)

// Matrix enumerates the configuration space the oracle exercises for one
// design: (Order x Budget x workers), plus an optional pipelined point.
type Matrix struct {
	// BudgetSlack extends the budget axis to criticalPath..criticalPath+
	// BudgetSlack (the paper's Table II walks exactly this axis).
	BudgetSlack int
	// Orders lists the mux processing orders to cross with every budget.
	Orders []pmsynth.Order
	// Workers lists the sweep worker counts whose result tables must be
	// byte-identical (the determinism axis; 1 is the serial reference).
	Workers []int
	// Vectors is the number of behavioral probe vectors per point (the
	// all-zeros and all-ones corners are always prepended).
	Vectors int
	// GateSamples is the number of gate-level vectors per point; 0
	// disables the (expensive) netlist-simulation stage.
	GateSamples int
	// Pipeline adds a (budget=2*cp, II=cp) point when the critical path
	// cp is at least 2, exercising paper §IV.B modulo scheduling.
	Pipeline bool
	// Stages optionally restricts the oracle to the named stages (see
	// KnownStages); compile and synthesize always run as prerequisites.
	// Empty means every stage.
	Stages []string
	// OptimalExpansions bounds the exact solver's branch-and-bound search
	// in the optimality-gap stage; 0 uses defaultOptimalExpansions. A
	// truncated search downgrades the stage's equality assertion to a
	// sound lower-bound check.
	OptimalExpansions int
}

// runStage reports whether the named stage is enabled by the filter.
func (m Matrix) runStage(stage string) bool {
	if len(m.Stages) == 0 {
		return true
	}
	for _, s := range m.Stages {
		if s == stage {
			return true
		}
	}
	return false
}

// defaultOptimalExpansions bounds the exact solver per sweep point when the
// matrix does not say otherwise: small enough that adversarial fuzz inputs
// finish promptly, large enough that typical oracle designs certify
// (measured on the pmverify profiles, raising the cap to 50k certifies
// under 5% more points at ~10x the cost — the warm-started seed already
// matches the heuristic, so truncation only loosens the bound).
const defaultOptimalExpansions = 10_000

// maxReferenceSelects caps the distinct selects of a guard map the stages
// hand to the scalar reference enumeration, power.AnalyzeExactReference:
// 2^16 joint outcomes.
const maxReferenceSelects = 16

func (m Matrix) optimalExpansions() int {
	if m.OptimalExpansions > 0 {
		return m.OptimalExpansions
	}
	return defaultOptimalExpansions
}

// Oracle stages, in pipeline order.
const (
	StageCompile     = "compile"
	StageSynthesize  = "synthesize"
	StageSchedule    = "schedule-valid"
	StageBehavioral  = "behavioral"
	StageActivity    = "activity-differential"
	StageGateLevel   = "gate-level"
	StageOptimality  = "optimality-gap"
	StageDeterminism = "determinism"
	StageSweep       = "sweep-determinism"
	StageFingerprint = "fingerprint"
)

// KnownStages lists the stages a Matrix.Stages filter can select, in
// execution order. Compile and synthesize are prerequisites of everything
// and are not filterable.
func KnownStages() []string {
	return []string{
		StageSchedule, StageBehavioral, StageActivity, StageGateLevel,
		StageOptimality, StageDeterminism, StageSweep, StageFingerprint,
	}
}

// Divergence is one oracle finding: an invariant that did not hold.
type Divergence struct {
	// Stage names the oracle stage that caught the divergence.
	Stage string `json:"stage"`
	// Point identifies the matrix point, e.g. "budget=3 ii=0
	// order=outputs-first"; empty for whole-design stages.
	Point string `json:"point,omitempty"`
	// Detail is the human-readable mismatch description.
	Detail string `json:"detail"`
}

// Report is the oracle outcome for one design.
type Report struct {
	// Seed is the generator seed when the harness produced the design;
	// 0 for externally supplied sources.
	Seed int64 `json:"seed"`
	// Source is the checked Silage text.
	Source string `json:"source"`
	// CriticalPath is the design's minimum budget.
	CriticalPath int `json:"critical_path"`
	// Points is the number of matrix points evaluated.
	Points int `json:"points"`
	// Checks counts individual oracle assertions that ran.
	Checks int `json:"checks"`
	// Divergences lists every violated invariant (empty means PASS).
	Divergences []Divergence `json:"divergences,omitempty"`
	// Gaps records the heuristic-vs-exact power comparison of every
	// matrix point the optimality-gap stage measured.
	Gaps []Gap `json:"gaps,omitempty"`
	// StageNanos accumulates wall-clock time per stage. Timings are
	// inherently nondeterministic, so they are excluded from the JSON
	// report (which determinism tests compare byte for byte).
	StageNanos map[string]int64 `json:"-"`
}

// Gap is one point's heuristic-vs-exact power measurement.
type Gap struct {
	// Point identifies the matrix point.
	Point string `json:"point"`
	// Heuristic is the heuristic schedule's weighted power.
	Heuristic float64 `json:"heuristic"`
	// Optimal is the exact solver's weighted power (the certified
	// minimum when Certified, otherwise the best schedule found).
	Optimal float64 `json:"optimal"`
	// Certified reports whether the solver completed its search.
	Certified bool `json:"certified"`
}

// Pct returns the gap in percent of the heuristic's power
// (pmsynth.GapPct).
func (g Gap) Pct() float64 { return pmsynth.GapPct(g.Heuristic, g.Optimal) }

// observe accrues wall time spent in one stage.
func (r *Report) observe(stage string, start time.Time) {
	if r.StageNanos == nil {
		r.StageNanos = make(map[string]int64)
	}
	r.StageNanos[stage] += time.Since(start).Nanoseconds()
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// Stages returns the sorted set of stages that diverged.
func (r *Report) Stages() []string {
	set := map[string]bool{}
	for _, d := range r.Divergences {
		set[d.Stage] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (r *Report) addf(stage, point, format string, args ...interface{}) {
	r.Divergences = append(r.Divergences, Divergence{
		Stage: stage, Point: point, Detail: fmt.Sprintf(format, args...),
	})
}

// point is one synthesis configuration under test.
type point struct {
	opt pmsynth.Options
}

func (p point) String() string {
	return fmt.Sprintf("budget=%d ii=%d order=%s", p.opt.Budget, p.opt.II, p.opt.Order)
}

// CheckSource runs the full oracle on one source. rnd drives probe-vector
// generation only — the checked artifacts are all deterministic. A nil
// rnd uses a fixed seed, so CheckSource is reproducible by default.
func CheckSource(src string, m Matrix, rnd *rand.Rand) *Report {
	if rnd == nil {
		rnd = rand.New(rand.NewSource(1))
	}
	rep := &Report{Source: src}

	cstart := time.Now()
	design, err := pmsynth.Compile(src)
	rep.Checks++
	rep.observe(StageCompile, cstart)
	if err != nil {
		rep.addf(StageCompile, "", "compile: %v", err)
		return rep
	}
	cp, err := pmsynth.CriticalPath(design)
	if err != nil || cp < 0 {
		rep.addf(StageCompile, "", "critical path: cp=%d err=%v", cp, err)
		return rep
	}
	rep.CriticalPath = cp
	// Wire-only designs (an output fed straight from an input, a constant
	// or a shift) have cp=0 but still schedule at one step — the fuzz
	// harness found exactly such programs, and they are legal.
	base := cp
	if base < 1 {
		base = 1
	}

	points := enumerate(m, base)
	rep.Points = len(points)

	// Shared probe vectors: corner cases first, then random.
	vectors := probeVectors(design, m.Vectors, rnd)
	gateSeed := rnd.Int63()

	fps := make(map[string]string, len(points)) // fingerprint -> point
	optCache := make(map[string]*optPoint)      // "budget|ii" -> solve
	for _, p := range points {
		checkPoint(rep, design, src, p, m, vectors, gateSeed, fps, optCache)
	}
	if m.runStage(StageSweep) {
		start := time.Now()
		checkSweep(rep, design, src, m, base)
		rep.observe(StageSweep, start)
	}
	return rep
}

// enumerate expands the matrix into concrete synthesis points.
func enumerate(m Matrix, cp int) []point {
	var out []point
	orders := m.Orders
	if len(orders) == 0 {
		orders = []pmsynth.Order{pmsynth.OrderOutputsFirst}
	}
	for b := cp; b <= cp+m.BudgetSlack; b++ {
		for _, o := range orders {
			out = append(out, point{opt: pmsynth.Options{Budget: b, Order: o}})
		}
	}
	if m.Pipeline && cp >= 2 {
		out = append(out, point{opt: pmsynth.Options{Budget: 2 * cp, II: cp}})
	}
	return out
}

// probeVectors builds the shared behavioral input set: the all-zeros and
// all-ones corners plus n random vectors. Widths above 63 clamp the draw
// to the widest non-negative int64 word (the frontend admits num<64>, but
// input words ride int64 throughout the flow).
func probeVectors(d *pmsynth.Design, n int, rnd *rand.Rand) []map[string]int64 {
	g := d.Graph
	w := d.Width
	if w > 63 {
		w = 63
	}
	ones := int64(uint64(1)<<uint(w) - 1)
	var out []map[string]int64
	corner := func(v int64) map[string]int64 {
		in := make(map[string]int64, len(g.Inputs()))
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = v
		}
		return in
	}
	out = append(out, corner(0), corner(ones))
	for i := 0; i < n; i++ {
		in := make(map[string]int64, len(g.Inputs()))
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = chip.RandomWord(rnd, d.Width)
		}
		out = append(out, in)
	}
	return out
}

// checkPoint runs every per-configuration stage at one matrix point.
func checkPoint(rep *Report, design *pmsynth.Design, src string, p point, m Matrix,
	vectors []map[string]int64, gateSeed int64, fps map[string]string, optCache map[string]*optPoint) {

	pt := p.String()

	start := time.Now()
	syn, err := pmsynth.Synthesize(design, p.opt)
	rep.Checks++
	rep.observe(StageSynthesize, start)
	if err != nil {
		rep.addf(StageSynthesize, pt, "synthesize: %v", err)
		return
	}

	// Schedule validity: PM schedule under its own resource bag, and the
	// baseline schedule under the baseline bag. The baseline pass may
	// hand the baseline the PM pass's own artifacts, and then the stages
	// comparing PM against baseline compare one object with itself; a
	// from-scratch core.Baseline must therefore agree on the times and
	// the bag at every point.
	if m.runStage(StageSchedule) {
		start := time.Now()
		rep.Checks++
		if err := syn.PM.Schedule.Validate(syn.PM.Resources); err != nil {
			rep.addf(StageSchedule, pt, "PM schedule invalid: %v", err)
		}
		rep.Checks++
		if syn.Flow != nil && syn.BaselineSchedule != nil {
			if err := syn.BaselineSchedule.Validate(syn.Flow.BaselineResources); err != nil {
				rep.addf(StageSchedule, pt, "baseline schedule invalid: %v", err)
			}
			rep.Checks++
			s, res, err := core.Baseline(design.Graph, syn.Flow.Config.Budget, syn.Flow.Config.II)
			switch {
			case err != nil:
				rep.addf(StageSchedule, pt, "baseline recomputation failed: %v", err)
			case !slices.Equal(s.Time, syn.BaselineSchedule.Time) || !maps.Equal(res, syn.Flow.BaselineResources):
				rep.addf(StageSchedule, pt, "baseline (units %v) differs from a from-scratch core.Baseline (units %v)",
					syn.Flow.BaselineResources, res)
			}
		}
		rep.observe(StageSchedule, start)
	}

	// Behavioral equivalence on every probe vector: the gated PM schedule
	// and the ungated baseline schedule must both reproduce the reference
	// interpreter (the baseline check matters whenever the gate-level
	// stage is disabled or skipped for width).
	// The three simulators are compiled once per point and reused across
	// the whole probe set; each program's output map is read before its
	// next run, so the program-owned buffers they hand out are safe here.
	if m.runStage(StageBehavioral) {
		start := time.Now()
		g := design.Graph
		opt := sim.Options{Width: design.Width}
		ref, refErr := sim.Compile(g, opt)
		pmProg, pmErr := sim.CompileScheduled(syn.PM.Schedule, syn.PM.Guards, opt)
		var baseProg *sim.ScheduledProgram
		var baseErr error
		if syn.BaselineSchedule != nil {
			baseProg, baseErr = sim.CompileScheduled(syn.BaselineSchedule, nil, opt)
		}
		if refErr != nil || pmErr != nil || baseErr != nil {
			rep.Checks++
			rep.addf(StageBehavioral, pt, "simulator compile failed: ref %v, gated %v, baseline %v",
				refErr, pmErr, baseErr)
		} else {
			for i, in := range vectors {
				rep.Checks++
				want, err := ref.Eval(in)
				if err != nil {
					rep.addf(StageBehavioral, pt, "reference eval failed on vector %d %v: %v", i, in, err)
					continue
				}
				got, err := pmProg.Run(in)
				if err != nil {
					rep.addf(StageBehavioral, pt, "gated execution failed on vector %d %v: %v", i, in, err)
					continue
				}
				for k, v := range want {
					if got.Outputs[k] != v {
						rep.addf(StageBehavioral, pt,
							"output %s mismatch on vector %d %v: gated %d, reference %d",
							k, i, in, got.Outputs[k], v)
					}
				}
				if baseProg == nil {
					continue
				}
				base, err := baseProg.Run(in)
				if err != nil {
					rep.addf(StageBehavioral, pt, "baseline execution failed on vector %d %v: %v", i, in, err)
					continue
				}
				for k, v := range want {
					if base.Outputs[k] != v {
						rep.addf(StageBehavioral, pt,
							"output %s mismatch on vector %d %v: baseline %d, reference %d",
							k, i, in, base.Outputs[k], v)
					}
				}
			}
		}
		rep.observe(StageBehavioral, start)
	}

	// Activity differential: the word-parallel exact activity analysis
	// must be bit-identical to the scalar reference enumeration. Both are
	// exponential in the distinct select count, so the stage caps the
	// scalar side at maxReferenceSelects.
	if n := len(power.DistinctSelects(syn.PM.Guards)); n <= maxReferenceSelects && m.runStage(StageActivity) {
		start := time.Now()
		rep.Checks++
		fast, fastOK := power.AnalyzeExact(syn.PM.Graph, syn.PM.Guards)
		ref, refOK := power.AnalyzeExactReference(syn.PM.Graph, syn.PM.Guards)
		if fastOK != refOK {
			rep.addf(StageActivity, pt, "exactness differs: word-parallel %v, scalar %v", fastOK, refOK)
		} else if fastOK {
			for id := range fast.Prob {
				if fast.Prob[id] != ref.Prob[id] {
					rep.addf(StageActivity, pt,
						"node %d probability differs: word-parallel %v, scalar %v",
						id, fast.Prob[id], ref.Prob[id])
				}
			}
		}
		rep.observe(StageActivity, start)
	}

	// Gate-level equivalence: chip.Compare, which GateLevelReportRand
	// calls, verifies both chips' outputs against the reference
	// interpreter on every sample. Designs wider than the netlist builder
	// supports stay behavioral-only.
	if m.GateSamples > 0 && design.Width <= chip.MaxWidth && m.runStage(StageGateLevel) {
		start := time.Now()
		rep.Checks++
		grnd := rand.New(rand.NewSource(gateSeed ^ int64(p.opt.Budget)<<16 ^ int64(p.opt.Order)))
		if _, err := syn.GateLevelReportRand(m.GateSamples, grnd); err != nil {
			rep.addf(StageGateLevel, pt, "gate-level compare: %v", err)
		}
		rep.observe(StageGateLevel, start)
	}

	// Optimality gap: the exact minimum-power baseline must be consistent
	// with the heuristic at every point — in both directions.
	if m.runStage(StageOptimality) {
		start := time.Now()
		checkOptimality(rep, design, syn, p, m, vectors, optCache)
		rep.observe(StageOptimality, start)
	}

	if !m.runStage(StageDeterminism) {
		checkFingerprint(rep, src, p, m, fps)
		return
	}
	dstart := time.Now()
	// Determinism: a second synthesis must reproduce every artifact byte
	// for byte.
	rep.Checks++
	syn2, err := pmsynth.Synthesize(design, p.opt)
	if err != nil {
		rep.addf(StageDeterminism, pt, "re-synthesize failed: %v", err)
	} else {
		if a, b := syn.PM.Schedule.String(), syn2.PM.Schedule.String(); a != b {
			rep.addf(StageDeterminism, pt, "schedule differs across runs:\n%s\nvs\n%s", a, b)
		}
		if syn.Row() != syn2.Row() {
			rep.addf(StageDeterminism, pt, "Table II row differs across runs: %v vs %v", syn.Row(), syn2.Row())
		}
		v1, err1 := syn.VHDL()
		v2, err2 := syn2.VHDL()
		if err1 != nil || err2 != nil {
			rep.addf(StageDeterminism, pt, "VHDL emission failed: %v / %v", err1, err2)
		} else if v1 != v2 {
			rep.addf(StageDeterminism, pt, "VHDL differs across runs")
		}
		r1, err1 := syn.Verilog()
		r2, err2 := syn2.Verilog()
		if err1 != nil || err2 != nil {
			rep.addf(StageDeterminism, pt, "Verilog emission failed: %v / %v", err1, err2)
		} else if r1 != r2 {
			rep.addf(StageDeterminism, pt, "Verilog differs across runs")
		}
	}
	rep.observe(StageDeterminism, dstart)

	checkFingerprint(rep, src, p, m, fps)
}

// checkFingerprint asserts fingerprint integrity: stable under
// recomputation, distinct across distinct configurations of the same
// source.
func checkFingerprint(rep *Report, src string, p point, m Matrix, fps map[string]string) {
	if !m.runStage(StageFingerprint) {
		return
	}
	start := time.Now()
	pt := p.String()
	rep.Checks++
	fp := pmsynth.Fingerprint(src, p.opt)
	if fp2 := pmsynth.Fingerprint(src, p.opt); fp != fp2 {
		rep.addf(StageFingerprint, pt, "fingerprint unstable: %s vs %s", fp, fp2)
	}
	if prev, dup := fps[fp]; dup {
		rep.addf(StageFingerprint, pt, "fingerprint collides with point %q: %s", prev, fp)
	}
	fps[fp] = pt
	rep.observe(StageFingerprint, start)
}

// optPoint caches one exact solve: the search depends only on (budget, II),
// not on the mux processing order, so the orders of one budget share it.
type optPoint struct {
	res *optimal.Result
	err error
}

// checkOptimality runs the optimality-gap differential at one point:
//
//   - the exact solver must succeed, deterministically (a fresh re-solve
//     reproduces power bits, schedule text and certificate),
//   - its schedule must validate under its resource bag and be
//     behaviorally equivalent to the reference interpreter,
//   - its certificate must be internally consistent (LowerBound <= Power,
//     with equality when Optimal), and
//   - the heuristic's power must not beat the certified lower bound — a
//     heuristic strictly below a certified optimum means one of the two
//     engines is wrong.
//
// The comparison is recorded in Report.Gaps whenever both engines evaluated
// the same objective (both exact, or both on the independence
// approximation).
func checkOptimality(rep *Report, design *pmsynth.Design, syn *pmsynth.Synthesis, p point, m Matrix,
	vectors []map[string]int64, optCache map[string]*optPoint) {

	pt := p.String()
	key := fmt.Sprintf("%d|%d", p.opt.Budget, p.opt.II)
	entry, ok := optCache[key]
	if !ok {
		// The first order at this (budget, II) seeds the warm start; the
		// point iteration order is fixed, so the cache stays
		// deterministic.
		r1, err := syn.Optimal(m.optimalExpansions())
		entry = &optPoint{res: r1, err: err}
		optCache[key] = entry
		rep.Checks++
		if err == nil {
			r2, err2 := syn.Optimal(m.optimalExpansions())
			switch {
			case err2 != nil:
				rep.addf(StageOptimality, pt, "re-solve failed: %v", err2)
			case math.Float64bits(r1.Power) != math.Float64bits(r2.Power),
				r1.Cert != r2.Cert,
				r1.Schedule.String() != r2.Schedule.String():
				rep.addf(StageOptimality, pt,
					"solver nondeterministic: power %v vs %v, cert %+v vs %+v",
					r1.Power, r2.Power, r1.Cert, r2.Cert)
			}
			// The solver evaluates with power.AnalyzeExact; its result
			// must match the scalar reference bit for bit, as the
			// heuristic's does in the activity-differential stage.
			if r1.Exact && len(power.DistinctSelects(r1.Guards)) <= maxReferenceSelects {
				rep.Checks++
				ref, _ := power.AnalyzeExactReference(r1.Schedule.Graph, r1.Guards)
				for id := range ref.Prob {
					if r1.Activity.Prob[id] != ref.Prob[id] {
						rep.addf(StageOptimality, pt, "node %d optimal activity differs: solver %v, scalar %v",
							id, r1.Activity.Prob[id], ref.Prob[id])
					}
				}
			}
		}
	}
	if entry.err != nil {
		rep.Checks++
		rep.addf(StageOptimality, pt, "exact solve failed: %v", entry.err)
		return
	}
	opt := entry.res

	rep.Checks++
	if err := opt.Schedule.Validate(opt.Resources); err != nil {
		rep.addf(StageOptimality, pt, "optimal schedule invalid: %v", err)
	}

	rep.Checks++
	if opt.Cert.LowerBound > opt.Power {
		rep.addf(StageOptimality, pt, "certificate bound %v above power %v", opt.Cert.LowerBound, opt.Power)
	}
	if opt.Cert.Optimal && opt.Cert.LowerBound != opt.Power {
		rep.addf(StageOptimality, pt, "optimal certificate with loose bound: %v vs %v", opt.Cert.LowerBound, opt.Power)
	}

	// The exact schedule must still compute the behavior.
	o := sim.Options{Width: design.Width}
	ref, refErr := sim.Compile(design.Graph, o)
	prog, progErr := sim.CompileScheduled(opt.Schedule, opt.Guards, o)
	if refErr != nil || progErr != nil {
		rep.Checks++
		rep.addf(StageOptimality, pt, "simulator compile failed: ref %v, optimal %v", refErr, progErr)
	} else {
		for i, in := range vectors {
			rep.Checks++
			want, err := ref.Eval(in)
			if err != nil {
				rep.addf(StageOptimality, pt, "reference eval failed on vector %d %v: %v", i, in, err)
				continue
			}
			got, err := prog.Run(in)
			if err != nil {
				rep.addf(StageOptimality, pt, "optimal execution failed on vector %d %v: %v", i, in, err)
				continue
			}
			for k, v := range want {
				if got.Outputs[k] != v {
					rep.addf(StageOptimality, pt,
						"output %s mismatch on vector %d %v: optimal %d, reference %d",
						k, i, in, got.Outputs[k], v)
				}
			}
		}
	}

	// Gap assertion: only meaningful when both engines evaluated the same
	// objective. The cached solve may have been seeded by a different
	// order's heuristic, so a truncated result can exceed this order's
	// power; the certified lower bound is the invariant that always
	// holds.
	if syn.ActivityExact == opt.Exact {
		hp := syn.WeightedPower()
		rep.Checks++
		if hp < opt.Cert.LowerBound {
			kind := "lower bound"
			if opt.Cert.Optimal {
				kind = "certified optimum"
			}
			rep.addf(StageOptimality, pt,
				"gap inversion: heuristic power %v beats the solver's %s %v",
				hp, kind, opt.Cert.LowerBound)
		}
		rep.Gaps = append(rep.Gaps, Gap{
			Point:     pt,
			Heuristic: hp,
			Optimal:   opt.Power,
			Certified: opt.Cert.Optimal,
		})
	}
}

// checkSweep verifies that the sweep engine is worker-count invariant: the
// rendered result table (and the spec fingerprint) must be byte-identical
// at every worker count. The comparison is meaningful only because each
// pmsynth.Sweep call evaluates all its points and nothing is memoized
// across calls, so each worker count's table is an independent
// computation; TestSweepRecomputesEveryPoint enforces that condition.
func checkSweep(rep *Report, design *pmsynth.Design, src string, m Matrix, cp int) {
	if len(m.Workers) == 0 {
		return
	}
	spec := pmsynth.SweepSpec{
		BudgetMin: cp,
		BudgetMax: cp + m.BudgetSlack,
		Orders:    m.Orders,
	}
	var refTable string
	var refFP string
	for i, w := range m.Workers {
		spec.Workers = w
		rep.Checks++
		fp := pmsynth.SweepFingerprint(src, spec)
		sr, err := pmsynth.Sweep(design, spec)
		if err != nil {
			rep.addf(StageSweep, fmt.Sprintf("workers=%d", w), "sweep failed: %v", err)
			continue
		}
		table := sr.Table()
		if i == 0 {
			refTable, refFP = table, fp
			continue
		}
		if table != refTable {
			rep.addf(StageSweep, fmt.Sprintf("workers=%d", w),
				"sweep table differs from workers=%d reference:\n%s\nvs\n%s",
				m.Workers[0], table, refTable)
		}
		if fp != refFP {
			rep.addf(StageFingerprint, fmt.Sprintf("workers=%d", w),
				"SweepFingerprint depends on worker count: %s vs %s", fp, refFP)
		}
	}
}
