package verify

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	pmsynth "repro"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/sim"
)

// testMatrix is a reduced matrix keeping unit runs fast while still
// covering every oracle stage and all three axes.
func testMatrix() Matrix {
	return Matrix{
		BudgetSlack: 1,
		Orders: []pmsynth.Order{
			pmsynth.OrderOutputsFirst,
			pmsynth.OrderInputsFirst,
			pmsynth.OrderGreedyWeight,
		},
		Workers:           []int{1, 3},
		Vectors:           8,
		GateSamples:       4,
		Pipeline:          true,
		OptimalExpansions: 2000,
	}
}

// TestOracleBenchCircuits runs the oracle over the paper's own circuits:
// the hand-written fixtures and the generated harness share one oracle.
func TestOracleBenchCircuits(t *testing.T) {
	circuits := []*bench.Circuit{bench.AbsDiff(), bench.GCD()}
	for _, c := range circuits {
		rep := CheckSource(c.Source, testMatrix(), rand.New(rand.NewSource(7)))
		if !rep.OK() {
			t.Errorf("%s diverges: %+v", c.Name, rep.Divergences)
		}
		if rep.Points == 0 || rep.Checks == 0 {
			t.Errorf("%s: oracle ran no checks (points=%d checks=%d)", c.Name, rep.Points, rep.Checks)
		}
	}
}

// TestOracleGeneratedSeeds is the core property test: every generated
// design passes the full oracle. Failures are shrunk to a minimal
// reproducer before reporting.
func TestOracleGeneratedSeeds(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 3
	}
	profiles := []gen.Config{
		gen.Default(),
		{Ops: 6, Depth: 3, MuxFanIn: 4, Inputs: 3, Outputs: 2, AllowMul: true, AllowShift: true},
		{Ops: 4, Depth: 1, MuxFanIn: 2, Inputs: 2, Outputs: 1, Unroll: 4, AllowMul: true},
	}
	for seed := int64(0); seed < n; seed++ {
		gcfg := profiles[seed%int64(len(profiles))]
		rep := CheckSeed(seed, gcfg, testMatrix())
		if rep.OK() {
			continue
		}
		min := Minimize(rep, testMatrix())
		t.Errorf("seed %d diverges in stages %v: %+v\nminimized reproducer:\n%s",
			seed, rep.Stages(), rep.Divergences[0], min)
	}
}

// TestOracleDeterministic: one seed checks to one byte-identical report.
func TestOracleDeterministic(t *testing.T) {
	a := CheckSeed(5, gen.Default(), testMatrix())
	b := CheckSeed(5, gen.Default(), testMatrix())
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("oracle report not deterministic:\n%s\nvs\n%s", ja, jb)
	}
}

// TestOracleCompileFailure: an uncompilable source yields exactly one
// compile-stage divergence, not a crash.
func TestOracleCompileFailure(t *testing.T) {
	rep := CheckSource("func broken(", testMatrix(), nil)
	if rep.OK() {
		t.Fatal("uncompilable source reported OK")
	}
	if got := rep.Stages(); len(got) != 1 || got[0] != StageCompile {
		t.Fatalf("want compile-stage divergence, got %v", got)
	}
	// Minimize must hand the source back unchanged (nothing to shrink).
	if min := Minimize(rep, testMatrix()); min != rep.Source {
		t.Errorf("Minimize altered an unparsable source")
	}
}

// TestOracleCatchesTamperedSchedule plants corruption into a real
// synthesis and checks the exact primitives the oracle stages rely on do
// fire — the differential harness must not be vacuously green.
func TestOracleCatchesTamperedSchedule(t *testing.T) {
	c := bench.AbsDiff()
	design, err := pmsynth.Compile(c.Source)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := pmsynth.Synthesize(design, pmsynth.Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Stage schedule-valid: pulling one operation one step earlier than
	// its readiness must fail validation.
	s := *syn.PM.Schedule
	s.Time = append([]int(nil), syn.PM.Schedule.Time...)
	tampered := false
	for _, n := range s.Graph.Nodes() {
		if n.IsOp() && s.Time[n.ID] > 1 {
			ready := 0
			for _, p := range s.Graph.SchedPreds(n.ID) {
				if s.Time[p] > ready {
					ready = s.Time[p]
				}
			}
			if s.Time[n.ID] == ready+1 && ready > 0 {
				s.Time[n.ID]--
				tampered = true
				break
			}
		}
	}
	if !tampered {
		t.Fatal("found no op to tamper")
	}
	if err := s.Validate(syn.PM.Resources); err == nil {
		t.Error("sched.Validate accepted a precedence-violating schedule")
	}

	// Stage behavioral: flipping a guard polarity must produce a wrong
	// output or an unsound execution on some probe vector.
	if len(syn.PM.Guards) == 0 {
		t.Fatal("absdiff@3 has no guards; cannot tamper")
	}
	bad := make(sim.Guards, len(syn.PM.Guards))
	flippedOne := false
	for id, gl := range syn.PM.Guards {
		cp := append([]sim.Guard(nil), gl...)
		if !flippedOne && len(cp) > 0 {
			cp[0].WhenTrue = !cp[0].WhenTrue
			flippedOne = true
		}
		bad[id] = cp
	}
	caught := false
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 64 && !caught; i++ {
		in := map[string]int64{}
		for _, id := range design.Graph.Inputs() {
			in[design.Graph.Node(id).Name] = rnd.Int63n(1 << uint(design.Width))
		}
		want, err := sim.Evaluate(design.Graph, in, sim.Options{Width: design.Width})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.ExecuteScheduled(syn.PM.Schedule, bad, in, sim.Options{Width: design.Width})
		if err != nil {
			caught = true // unsound gating detected by the executor
			continue
		}
		for k, v := range want {
			if got.Outputs[k] != v {
				caught = true
			}
		}
	}
	if !caught {
		t.Error("flipped guard polarity was not detected on 64 vectors")
	}
}

// TestMatrixEnumerate pins the matrix expansion: budgets cross orders,
// and the pipelined point appears only when the critical path allows it.
func TestMatrixEnumerate(t *testing.T) {
	m := Matrix{BudgetSlack: 1, Orders: []pmsynth.Order{pmsynth.OrderOutputsFirst, pmsynth.OrderInputsFirst}, Pipeline: true}
	pts := enumerate(m, 3)
	if len(pts) != 5 { // 2 budgets x 2 orders + 1 pipelined
		t.Fatalf("want 5 points, got %d: %v", len(pts), pts)
	}
	last := pts[len(pts)-1]
	if last.opt.Budget != 6 || last.opt.II != 3 {
		t.Errorf("pipelined point wrong: %+v", last.opt)
	}
	if pts := enumerate(Matrix{Pipeline: true}, 1); len(pts) != 1 {
		t.Errorf("cp=1 must suppress the pipelined point, got %v", pts)
	}
}

// TestProbeVectorCorners: the all-zeros and all-ones corners always lead
// the probe set.
func TestProbeVectorCorners(t *testing.T) {
	d, err := pmsynth.Compile("func f(a: num<4>, b: num<4>) o: num<4> = begin o = a + b; end")
	if err != nil {
		t.Fatal(err)
	}
	vs := probeVectors(d, 3, rand.New(rand.NewSource(1)))
	if len(vs) != 5 {
		t.Fatalf("want 2 corners + 3 random, got %d", len(vs))
	}
	for name, v := range vs[0] {
		if v != 0 {
			t.Errorf("corner 0: input %s = %d, want 0", name, v)
		}
	}
	for name, v := range vs[1] {
		if v != 15 {
			t.Errorf("corner 1: input %s = %d, want 15", name, v)
		}
	}
}

// TestReportStages: stage aggregation sorts and dedups.
func TestReportStages(t *testing.T) {
	r := &Report{}
	r.addf(StageSweep, "", "x")
	r.addf(StageBehavioral, "p", "y")
	r.addf(StageSweep, "q", "z")
	got := r.Stages()
	if len(got) != 2 || got[0] != StageBehavioral || got[1] != StageSweep {
		t.Errorf("Stages() = %v", got)
	}
	if r.OK() {
		t.Error("report with divergences is OK")
	}
	if !strings.Contains(r.Divergences[0].Detail, "x") {
		t.Error("detail lost")
	}
}

// TestKnownStages pins the filterable stage list and its execution order.
func TestKnownStages(t *testing.T) {
	want := []string{
		StageSchedule, StageBehavioral, StageActivity, StageGateLevel,
		StageOptimality, StageDeterminism, StageSweep, StageFingerprint,
	}
	got := KnownStages()
	if len(got) != len(want) {
		t.Fatalf("KnownStages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KnownStages()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestStageFilter: a restricted matrix runs exactly the selected stages.
// Timing accrual doubles as the ran/skipped witness — a stage that never
// ran has no StageNanos entry.
func TestStageFilter(t *testing.T) {
	src := bench.AbsDiff().Source
	m := testMatrix()
	m.Stages = []string{StageSchedule, StageOptimality}
	rep := CheckSource(src, m, rand.New(rand.NewSource(7)))
	if !rep.OK() {
		t.Fatalf("filtered oracle diverges: %+v", rep.Divergences)
	}
	for _, stage := range []string{StageCompile, StageSynthesize, StageSchedule, StageOptimality} {
		if _, ok := rep.StageNanos[stage]; !ok {
			t.Errorf("selected stage %s never ran", stage)
		}
	}
	for _, stage := range []string{StageBehavioral, StageGateLevel, StageDeterminism, StageSweep, StageFingerprint} {
		if _, ok := rep.StageNanos[stage]; ok {
			t.Errorf("filtered-out stage %s ran anyway", stage)
		}
	}
	if len(rep.Gaps) == 0 {
		t.Error("optimality stage selected but no gaps recorded")
	}

	// Excluding the optimality stage must record no gaps.
	m.Stages = []string{StageSchedule}
	rep = CheckSource(src, m, rand.New(rand.NewSource(7)))
	if len(rep.Gaps) != 0 {
		t.Errorf("optimality stage filtered out but %d gaps recorded", len(rep.Gaps))
	}
}

// TestOptimalityGaps: on the paper's own circuits the exact baseline must
// never lose to the heuristic, and the small fixtures certify outright.
func TestOptimalityGaps(t *testing.T) {
	for _, c := range []*bench.Circuit{bench.AbsDiff(), bench.GCD()} {
		rep := CheckSource(c.Source, testMatrix(), rand.New(rand.NewSource(7)))
		if !rep.OK() {
			t.Fatalf("%s diverges: %+v", c.Name, rep.Divergences)
		}
		if len(rep.Gaps) == 0 {
			t.Fatalf("%s: no gaps recorded", c.Name)
		}
		for _, gp := range rep.Gaps {
			if gp.Optimal > gp.Heuristic {
				t.Errorf("%s %s: optimal %v above heuristic %v", c.Name, gp.Point, gp.Optimal, gp.Heuristic)
			}
			if !gp.Certified {
				t.Errorf("%s %s: small fixture did not certify", c.Name, gp.Point)
			}
		}
	}
}

// TestDefaultMatrix checks the zero Matrix's defaults: no stage filter runs
// every stage, and a zero expansion cap takes defaultOptimalExpansions.
func TestDefaultMatrix(t *testing.T) {
	var m Matrix
	for _, s := range KnownStages() {
		if !m.runStage(s) {
			t.Errorf("stage %s filtered by an empty stage list", s)
		}
	}
	if m.optimalExpansions() != defaultOptimalExpansions {
		t.Errorf("optimalExpansions = %d, want default %d", m.optimalExpansions(), defaultOptimalExpansions)
	}
}
