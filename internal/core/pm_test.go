package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cdfg"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/silage"
	"repro/internal/sim"
)

const absDiffSrc = `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

func compile(t *testing.T, src string) *cdfg.Graph {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph
}

// TestFigure1TwoStepsNoPM: with only two control steps the schedule is
// unique and no power management is possible (paper Fig. 1).
func TestFigure1TwoStepsNoPM(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 0 {
		t.Errorf("managed muxes = %d, want 0", r.NumManaged())
	}
	if len(r.Guards) != 0 {
		t.Errorf("guards = %v, want none", r.Guards)
	}
	// The schedule matches the traditional one: both subs in step 1.
	if r.Schedule.StepOf(r.Graph.Lookup("d1")) != 1 || r.Schedule.StepOf(r.Graph.Lookup("d2")) != 1 {
		t.Error("two-step schedule should run both subtractions in step 1")
	}
	if r.Resources[cdfg.ClassSub] != 2 {
		t.Errorf("subtractors = %d, want 2", r.Resources[cdfg.ClassSub])
	}
}

// TestFigure2ThreeStepsPM: with three control steps the comparison is
// scheduled first and both subtractions are gated (paper Fig. 2(b)).
func TestFigure2ThreeStepsPM(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 1 {
		t.Fatalf("managed muxes = %d, want 1", r.NumManaged())
	}
	mm := r.Managed[0]
	wg := r.Graph
	if wg.Node(mm.Mux).Name != "out" {
		t.Errorf("managed mux = %q", wg.Node(mm.Mux).Name)
	}
	if wg.Node(mm.Sel).Name != "g" {
		t.Errorf("control source = %q, want comparator g", wg.Node(mm.Sel).Name)
	}
	if len(mm.GatedTrue) != 1 || len(mm.GatedFalse) != 1 {
		t.Fatalf("gated sets: true=%d false=%d, want 1/1", len(mm.GatedTrue), len(mm.GatedFalse))
	}
	if wg.Node(mm.GatedTrue[0]).Name != "d1" || wg.Node(mm.GatedFalse[0]).Name != "d2" {
		t.Error("wrong gated assignments")
	}
	// Schedule shape: comparator step 1, subs step 2, mux step 3.
	if s := r.Schedule.StepOf(wg.Lookup("g")); s != 1 {
		t.Errorf("comparator at step %d, want 1", s)
	}
	for _, name := range []string{"d1", "d2"} {
		if s := r.Schedule.StepOf(wg.Lookup(name)); s != 2 {
			t.Errorf("%s at step %d, want 2", name, s)
		}
	}
	if s := r.Schedule.StepOf(wg.Lookup("out")); s != 3 {
		t.Errorf("mux at step %d, want 3", s)
	}
	// Two subtractors, as in the paper's preferred Fig. 2(b) variant.
	if r.Resources[cdfg.ClassSub] != 2 {
		t.Errorf("subtractors = %d, want 2", r.Resources[cdfg.ClassSub])
	}
	// Control edges present: g -> d1, g -> d2.
	if len(wg.ControlEdges()) != 2 {
		t.Errorf("control edges = %d, want 2", len(wg.ControlEdges()))
	}
}

// TestFigure2OneSubtractorPartialGating: with one subtractor the first
// subtraction must issue before the condition is known; only the second is
// gated (paper §II.B).
func TestFigure2OneSubtractorPartialGating(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{
		Budget:    3,
		Resources: sched.Resources{cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg := r.Graph
	if r.NumManaged() != 1 {
		t.Fatalf("managed muxes = %d, want 1", r.NumManaged())
	}
	gated := r.GatedOps()
	if len(gated) != 1 {
		t.Fatalf("gated ops = %d, want 1 (one sub released)", len(gated))
	}
	// One sub executes unconditionally in step 1, the gated one later.
	d1, d2 := wg.Lookup("d1"), wg.Lookup("d2")
	var free, kept cdfg.NodeID
	if gated.Contains(d1) {
		kept, free = d1, d2
	} else if gated.Contains(d2) {
		kept, free = d2, d1
	} else {
		t.Fatal("neither sub gated")
	}
	if s := r.Schedule.StepOf(free); s != 1 {
		t.Errorf("ungated sub at step %d, want 1", s)
	}
	if s := r.Schedule.StepOf(kept); s < 2 {
		t.Errorf("gated sub at step %d, want >= 2", s)
	}
	if err := r.Schedule.Validate(sched.Resources{cdfg.ClassSub: 1}); err != nil {
		t.Error(err)
	}
}

// TestPMPreservesSemantics: the gated schedule computes the same outputs as
// the reference interpreter for all inputs.
func TestPMPreservesSemantics(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		in := map[string]int64{"a": int64(a), "b": int64(b)}
		ref, err := sim.Evaluate(g, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		got, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		return got.Outputs["out:out"] == ref["out:out"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPMShutsDownOneSub: in the 3-step PM schedule exactly one subtraction
// executes per sample.
func TestPMShutsDownOneSub(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []map[string]int64{{"a": 5, "b": 2}, {"a": 2, "b": 5}, {"a": 3, "b": 3}} {
		res, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.NumExecuted(r.Graph, cdfg.ClassSub); n != 1 {
			t.Errorf("input %v: %d subs executed, want 1", in, n)
		}
	}
}

// nestedSrc has an inner conditional entirely inside one branch of an
// outer conditional.
const nestedSrc = `
func nest(a: num<8>, b: num<8>, x: num<8>) o: num<8> =
begin
    outer = a > b;
    t1    = a - b;
    inner = t1 > 4;
    t2    = t1 * 3;
    t3    = t1 + 7;
    m     = if inner -> t2 || t3 fi;
    o     = if outer -> m || x fi;
end
`

func TestNestedConditionalsGating(t *testing.T) {
	g := compile(t, nestedSrc)
	cp, _ := g.CriticalPath()
	// Critical path: t1 -> inner -> t2/t3 ... m -> o.
	r, err := Schedule(g, Config{Budget: cp + 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 2 {
		t.Fatalf("managed = %d, want 2 (outer and inner)", r.NumManaged())
	}
	wg := r.Graph
	// t2 and t3 carry two guards: outer (true branch) and inner.
	for _, name := range []string{"t2", "t3"} {
		if len(r.Guards[wg.Lookup(name)]) != 2 {
			t.Errorf("%s guards = %v, want 2", name, r.Guards[wg.Lookup(name)])
		}
	}
	// t1 and inner carry one guard (outer only).
	for _, name := range []string{"t1", "inner"} {
		if len(r.Guards[wg.Lookup(name)]) != 1 {
			t.Errorf("%s guards = %v, want 1", name, r.Guards[wg.Lookup(name)])
		}
	}
	// Semantics preserved over random inputs.
	f := func(a, b, x uint8) bool {
		in := map[string]int64{"a": int64(a), "b": int64(b), "x": int64(x)}
		ref, err := sim.Evaluate(g, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		got, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		return got.Outputs["out:o"] == ref["out:o"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSharedNodeNotGated: a node feeding both branches must never be gated.
func TestSharedNodeNotGated(t *testing.T) {
	src := `
func shared(a: num<8>, b: num<8>) o: num<8> =
begin
    c  = a > b;
    s  = a + b;
    t1 = s - 1;
    t2 = s - 2;
    o  = if c -> t1 || t2 fi;
end
`
	g := compile(t, src)
	r, err := Schedule(g, Config{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.GatedOps().Contains(r.Graph.Lookup("s")) {
		t.Error("shared adder s gated despite feeding both branches")
	}
	for _, name := range []string{"t1", "t2"} {
		if !r.GatedOps().Contains(r.Graph.Lookup(name)) {
			t.Errorf("%s not gated", name)
		}
	}
}

// TestFanoutEscapeNotGated: a node whose value escapes to another output
// must never be gated.
func TestFanoutEscapeNotGated(t *testing.T) {
	src := `
func escape(a: num<8>, b: num<8>) o: num<8>, esc: num<8> =
begin
    c   = a > b;
    t1  = a - b;
    t2  = t1 * 2;
    esc = t1 + 1;
    o   = if c -> t2 || b fi;
end
`
	g := compile(t, src)
	r, err := Schedule(g, Config{Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.GatedOps().Contains(r.Graph.Lookup("t1")) {
		t.Error("t1 gated despite escaping through esc")
	}
	if !r.GatedOps().Contains(r.Graph.Lookup("t2")) {
		t.Error("t2 should be gated (exclusive to the true branch)")
	}
}

// TestControlConeNotGated: nodes feeding the select must not be gated.
func TestControlConeNotGated(t *testing.T) {
	src := `
func ctrlcone(a: num<8>, b: num<8>) o: num<8> =
begin
    s = a - b;
    c = s > 4;
    t = s * 2;
    u = a + 1;
    o = if c -> t || u fi;
end
`
	g := compile(t, src)
	r, err := Schedule(g, Config{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.GatedOps().Contains(r.Graph.Lookup("s")) {
		t.Error("s gated despite feeding the select")
	}
	// t reads s (shared with control cone) but is itself exclusive.
	if !r.GatedOps().Contains(r.Graph.Lookup("t")) {
		t.Error("t should be gated")
	}
	if !r.GatedOps().Contains(r.Graph.Lookup("u")) {
		t.Error("u should be gated")
	}
}

// TestTightBudgetRevertsMux: when serialization would violate the budget
// the mux is left unmanaged (paper Fig. 3 step 7).
func TestTightBudgetRevertsMux(t *testing.T) {
	// Chain: s(1) c(2) | branch t needs steps after c -> t at 3, mux at
	// 4. With budget 3 the mux must execute at 3 and t at 2 <= before c:
	// infeasible, so no PM.
	src := `
func tight(a: num<8>, b: num<8>) o: num<8> =
begin
    s = a - b;
    c = s > 4;
    t = a * 2;
    u = b + 3;
    o = if c -> t || u fi;
end
`
	g := compile(t, src)
	r3, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r3.NumManaged() != 0 {
		t.Errorf("budget 3: managed = %d, want 0", r3.NumManaged())
	}
	if len(r3.Graph.ControlEdges()) != 0 {
		t.Error("budget 3: control edges not reverted")
	}
	r4, err := Schedule(g, Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.NumManaged() != 1 {
		t.Errorf("budget 4: managed = %d, want 1", r4.NumManaged())
	}
}

func TestBudgetBelowCriticalPathRejected(t *testing.T) {
	g := compile(t, absDiffSrc)
	if _, err := Schedule(g, Config{Budget: 1}); err == nil {
		t.Error("budget 1 accepted for CP-2 graph")
	}
	if _, err := Schedule(g, Config{Budget: 0}); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := Schedule(g, Config{Budget: 3, II: 9}); err == nil {
		t.Error("II > budget accepted")
	}
}

func TestInputDrivenSelect(t *testing.T) {
	// A select driven directly by a primary input: gating needs no
	// serialization at all (the condition is known at step 0).
	src := `
func insel(a: num<8>, b: num<8>, pick: bool) o: num<8> =
begin
    t1 = a * 3;
    t2 = b + 1;
    o  = if pick -> t1 || t2 fi;
end
`
	g := compile(t, src)
	r, err := Schedule(g, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 1 {
		t.Fatalf("managed = %d, want 1", r.NumManaged())
	}
	if !r.GatedOps().Contains(r.Graph.Lookup("t1")) || !r.GatedOps().Contains(r.Graph.Lookup("t2")) {
		t.Error("both branch ops should be gated")
	}
}

func TestBaselineMatchesTraditional(t *testing.T) {
	g := compile(t, absDiffSrc)
	s, res, err := Baseline(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[cdfg.ClassSub] != 1 {
		t.Errorf("baseline subtractors = %d, want 1 (paper Fig. 2(a))", res[cdfg.ClassSub])
	}
	if err := s.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestOrderStrategiesRun(t *testing.T) {
	g := compile(t, nestedSrc)
	cp, _ := g.CriticalPath()
	for _, o := range []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight} {
		r, err := Schedule(g, Config{Budget: cp + 2, Order: o})
		if err != nil {
			t.Errorf("%v: %v", o, err)
			continue
		}
		if r.Order != o {
			t.Errorf("result order = %v, want %v", r.Order, o)
		}
		if o.String() == "" {
			t.Error("empty order name")
		}
		if got, err := ParseOrder(o.String()); err != nil || got != o {
			t.Errorf("ParseOrder(%q) = %v, %v", o, got, err)
		}
	}
	if Order(99).String() == "" {
		t.Error("unknown order should still print")
	}
	if o, err := ParseOrder(""); err != nil || o != OrderOutputsFirst {
		t.Errorf(`ParseOrder("") = %v, %v; want the default`, o, err)
	}
	for _, bad := range []string{"greedy", "outputs", Order(99).String()} {
		if _, err := ParseOrder(bad); err == nil {
			t.Errorf("ParseOrder(%q) accepted a non-canonical name", bad)
		}
	}
}

// TestInputGraphNotMutated pins the fork on first write: Schedule, Baseline
// and Explain read their input and never write it, at every budget from
// the critical path up, pipelined, under fixed resources, and on an input
// that carries a control edge of its own. Schedule's result aliases the
// input exactly when it managed nothing under minimized hardware, and
// Baseline's schedule exactly when the input has no control edge.
func TestInputGraphNotMutated(t *testing.T) {
	for _, ng := range oracleGraphs(t, 20) {
		// The user edge runs from an input to the last operation, so it
		// leaves the critical path as it is.
		withEdge := ng.g.Fork()
		last := cdfg.InvalidNode
		for _, n := range withEdge.Nodes() {
			if n.IsOp() {
				last = n.ID
			}
		}
		if err := withEdge.AddControlEdge(withEdge.Inputs()[0], last); err != nil {
			t.Fatal(err)
		}
		for _, g := range []*cdfg.Graph{ng.g, withEdge} {
			checkInputNotMutated(t, ng.name, g)
		}
	}
}

func checkInputNotMutated(t *testing.T, name string, g *cdfg.Graph) {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for b := cp; b <= cp+3; b++ {
		cfgs = append(cfgs, Config{Budget: b})
	}
	cfgs = append(cfgs, Config{Budget: 2 * cp, II: cp})
	pm, err := Schedule(g, Config{Budget: cp + 2})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fixed := pm.Resources.Clone()
	for c := range fixed {
		fixed[c]++
	}
	cfgs = append(cfgs, Config{Budget: cp + 2, Resources: fixed})

	dot, edges := g.DOT(), slices.Clone(g.ControlEdges())
	unchanged := func(pt, call string) {
		if g.DOT() != dot || !slices.Equal(g.ControlEdges(), edges) {
			t.Fatalf("%s: %s mutated the input graph", pt, call)
		}
	}
	for _, cfg := range cfgs {
		cfg.Weights = power.Weights
		pt := fmt.Sprintf("%s (%d control edges) budget=%d ii=%d fixed=%v",
			name, len(edges), cfg.Budget, cfg.II, cfg.Resources != nil)
		r, err := Schedule(g, cfg)
		unchanged(pt, "Schedule")
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		if alias := r.NumManaged() == 0 && cfg.Resources == nil; (r.Graph == g) != alias {
			t.Errorf("%s: Result.Graph is the input = %v, want %v", pt, r.Graph == g, alias)
		}
		s, _, err := Baseline(g, cfg.Budget, cfg.II)
		unchanged(pt, "Baseline")
		if err != nil {
			t.Fatalf("%s: baseline: %v", pt, err)
		}
		if (s.Graph == g) != (len(edges) == 0) {
			t.Errorf("%s: the baseline schedule's graph is the input = %v", pt, s.Graph == g)
		}
		if _, err := Explain(g, cfg); err != nil {
			t.Fatalf("%s: explain: %v", pt, err)
		}
		unchanged(pt, "Explain")
	}
}

func TestManagedMuxHelpers(t *testing.T) {
	mm := ManagedMux{GatedTrue: []cdfg.NodeID{1, 2}, GatedFalse: []cdfg.NodeID{3}}
	if mm.GatedCount() != 3 {
		t.Errorf("GatedCount = %d", mm.GatedCount())
	}
}

// TestPipelinedPMSchedule: pipelining (II < budget) leaves throughput
// intact while creating slack for power management (paper §IV.B).
func TestPipelinedPMSchedule(t *testing.T) {
	// Critical path 3; at budget 3 (one sample per 3 steps) there is no
	// slack to manage the mux gating the multiply.
	src := `
func pipe(a: num<8>, b: num<8>) o: num<8> =
begin
    s  = a + b;
    c  = s > 9;
    t1 = s * 3;
    t2 = s - 1;
    o  = if c -> t1 || t2 fi;
end
`
	g := compile(t, src)
	r1, err := Schedule(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumManaged() != 0 {
		t.Fatalf("budget 3: managed = %d, want 0", r1.NumManaged())
	}
	// Two-stage pipeline: latency 6, initiation interval 3. Same
	// throughput, slack appears, the mux becomes manageable.
	r2, err := Schedule(g, Config{Budget: 6, II: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumManaged() != 1 {
		t.Errorf("pipelined: managed = %d, want 1", r2.NumManaged())
	}
	if r2.Schedule.II != 3 || r2.Schedule.Steps != 6 {
		t.Errorf("pipelined schedule shape: steps=%d ii=%d", r2.Schedule.Steps, r2.Schedule.II)
	}
	if err := r2.Schedule.Validate(r2.Resources); err != nil {
		t.Error(err)
	}
}

// TestRelaxationPreservesSemantics: partial gating under fixed resources
// still computes correct outputs, and at least one op remains gated.
func TestRelaxationPreservesSemantics(t *testing.T) {
	g := compile(t, absDiffSrc)
	r, err := Schedule(g, Config{
		Budget:    3,
		Resources: sched.Resources{cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		in := map[string]int64{"a": int64(a), "b": int64(b)}
		ref, err := sim.Evaluate(g, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		got, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		return got.Outputs["out:out"] == ref["out:out"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPMSemanticsOnRandomConditionals builds random two-level
// conditional programs and verifies output equivalence of the PM schedule.
func TestPropertyPMSemanticsOnRandomConditionals(t *testing.T) {
	build := func(r *rand.Rand) *cdfg.Graph {
		g := cdfg.New("rnd")
		a := cdfg.MustAdd(g.AddInput("a"))
		b := cdfg.MustAdd(g.AddInput("b"))
		kinds := []cdfg.Kind{cdfg.KindAdd, cdfg.KindSub, cdfg.KindMul}
		mk := func(name string, depth int) cdfg.NodeID {
			x, y := a, b
			if r.Intn(2) == 0 {
				x, y = b, a
			}
			id := cdfg.MustAdd(g.AddOp(kinds[r.Intn(len(kinds))], name, x, y))
			for d := 1; d < depth; d++ {
				id = cdfg.MustAdd(g.AddOp(kinds[r.Intn(len(kinds))], name+"x", id, a))
			}
			return id
		}
		c1 := cdfg.MustAdd(g.AddOp(cdfg.KindGt, "c1", a, b))
		t1 := mk("t1", 1+r.Intn(2))
		t2 := mk("t2", 1+r.Intn(2))
		m1 := cdfg.MustAdd(g.AddMux("m1", c1, t1, t2))
		cdfg.MustAdd(g.AddOutput("o", m1))
		return g
	}
	f := func(seed int64, av, bv uint8, extra uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := build(r)
		cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		pm, err := Schedule(g, Config{Budget: cp + 1 + int(extra%3)})
		if err != nil {
			return false
		}
		in := map[string]int64{"a": int64(av), "b": int64(bv)}
		ref, err := sim.Evaluate(g, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		got, err := sim.ExecuteScheduled(pm.Schedule, pm.Guards, in, sim.Options{Width: 8})
		if err != nil {
			return false
		}
		return got.Outputs["out:o"] == ref["out:o"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNoMuxGraph(t *testing.T) {
	src := "func plain(a: num<8>, b: num<8>) o: num<8> = begin o = a + b; end"
	g := compile(t, src)
	r, err := Schedule(g, Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 0 || len(r.Guards) != 0 {
		t.Error("mux-free graph should have no management")
	}
}
