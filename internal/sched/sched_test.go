package sched

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdfg"
)

// absDiff builds the |a-b| CDFG of paper Figures 1-2.
func absDiff(t *testing.T) *cdfg.Graph {
	t.Helper()
	g := cdfg.New("absdiff")
	a := cdfg.MustAdd(g.AddInput("a"))
	b := cdfg.MustAdd(g.AddInput("b"))
	gt := cdfg.MustAdd(g.AddOp(cdfg.KindGt, "g", a, b))
	d1 := cdfg.MustAdd(g.AddOp(cdfg.KindSub, "d1", a, b))
	d2 := cdfg.MustAdd(g.AddOp(cdfg.KindSub, "d2", b, a))
	m := cdfg.MustAdd(g.AddMux("m", gt, d1, d2))
	cdfg.MustAdd(g.AddOutput("out", m))
	return g
}

func TestASAPBasic(t *testing.T) {
	g := absDiff(t)
	asap, err := ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	if asap[g.Lookup("a")] != 0 {
		t.Errorf("input asap = %d, want 0", asap[g.Lookup("a")])
	}
	if asap[g.Lookup("d1")] != 1 || asap[g.Lookup("g")] != 1 {
		t.Error("first-level ops should have asap 1")
	}
	if asap[g.Lookup("m")] != 2 {
		t.Errorf("mux asap = %d, want 2", asap[g.Lookup("m")])
	}
}

func TestALAPBasic(t *testing.T) {
	g := absDiff(t)
	alap, err := ALAP(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if alap[g.Lookup("m")] != 3 {
		t.Errorf("mux alap = %d, want 3", alap[g.Lookup("m")])
	}
	if alap[g.Lookup("d1")] != 2 {
		t.Errorf("sub alap = %d, want 2", alap[g.Lookup("d1")])
	}
	if alap[g.Lookup("a")] != 1 {
		t.Errorf("input alap = %d, want 1", alap[g.Lookup("a")])
	}
}

func TestWindowFeasibility(t *testing.T) {
	g := absDiff(t)
	w2, err := AnalyzeWindow(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Feasible() {
		t.Error("budget 2 should be feasible (critical path is 2)")
	}
	w1, err := AnalyzeWindow(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Feasible() {
		t.Error("budget 1 should be infeasible")
	}
	if w2.Mobility(g.Lookup("g")) != 0 {
		// comparator: asap 1, alap 1 at budget 2 (mux must be at 2).
		t.Errorf("comparator mobility = %d, want 0", w2.Mobility(g.Lookup("g")))
	}
}

func TestControlEdgesTightenASAP(t *testing.T) {
	g := absDiff(t)
	// Force subs after the comparator, as the PM pass would.
	for _, name := range []string{"d1", "d2"} {
		if err := g.AddControlEdge(g.Lookup("g"), g.Lookup(name)); err != nil {
			t.Fatal(err)
		}
	}
	asap, err := ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	if asap[g.Lookup("d1")] != 2 {
		t.Errorf("gated sub asap = %d, want 2", asap[g.Lookup("d1")])
	}
	if asap[g.Lookup("m")] != 3 {
		t.Errorf("mux asap = %d, want 3", asap[g.Lookup("m")])
	}
	mb, err := MinBudget(g)
	if err != nil {
		t.Fatal(err)
	}
	if mb != 3 {
		t.Errorf("min budget with control edges = %d, want 3", mb)
	}
}

func TestListFigure1TwoSteps(t *testing.T) {
	g := absDiff(t)
	s, err := List(g, 2, 2, Resources{cdfg.ClassSub: 2, cdfg.ClassComp: 1, cdfg.ClassMux: 1})
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if err := s.Validate(Resources{cdfg.ClassSub: 2, cdfg.ClassComp: 1, cdfg.ClassMux: 1}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Paper Fig. 1: the only 2-step schedule has all three first, mux last.
	for _, name := range []string{"g", "d1", "d2"} {
		if s.StepOf(g.Lookup(name)) != 1 {
			t.Errorf("%s at step %d, want 1", name, s.StepOf(g.Lookup(name)))
		}
	}
	if s.StepOf(g.Lookup("m")) != 2 {
		t.Errorf("mux at step %d, want 2", s.StepOf(g.Lookup("m")))
	}
}

func TestListTwoStepsOneSubtractorInfeasible(t *testing.T) {
	g := absDiff(t)
	_, err := List(g, 2, 2, Resources{cdfg.ClassSub: 1})
	if err == nil {
		t.Fatal("2 steps with 1 subtractor should be infeasible")
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("error type %T, want *InfeasibleError", err)
	}
	if !ie.HasClass || ie.Class != cdfg.ClassSub {
		t.Errorf("blocking class = %v (has=%v), want sub", ie.Class, ie.HasClass)
	}
}

func TestListThreeStepsOneSubtractor(t *testing.T) {
	g := absDiff(t)
	res := Resources{cdfg.ClassSub: 1, cdfg.ClassComp: 1, cdfg.ClassMux: 1}
	s, err := List(g, 3, 3, res)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if err := s.Validate(res); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Paper Fig. 2(a): subs split across steps 1 and 2, mux in step 3.
	s1, s2 := s.StepOf(g.Lookup("d1")), s.StepOf(g.Lookup("d2"))
	if s1 == s2 {
		t.Errorf("both subs in step %d with one subtractor", s1)
	}
	if s.StepOf(g.Lookup("m")) != 3 {
		t.Errorf("mux at step %d, want 3", s.StepOf(g.Lookup("m")))
	}
}

func TestListBudgetBelowCriticalPath(t *testing.T) {
	g := absDiff(t)
	_, err := List(g, 1, 1, nil)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	if ie.HasClass {
		t.Error("critical-path infeasibility should not blame a class")
	}
	if _, err := List(g, 0, 0, nil); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestListBadII(t *testing.T) {
	g := absDiff(t)
	if _, err := List(g, 3, 4, nil); err == nil {
		t.Error("ii > budget accepted")
	}
	if _, err := List(g, 3, 0, nil); err == nil {
		t.Error("ii = 0 accepted")
	}
}

func TestMinimizeAbsDiff(t *testing.T) {
	g := absDiff(t)
	// At the critical path (2 steps) two subtractors are required.
	s2, res2, err := MinimizeSimple(g, 2)
	if err != nil {
		t.Fatalf("Minimize@2: %v", err)
	}
	if res2[cdfg.ClassSub] != 2 {
		t.Errorf("subtractors@2 = %d, want 2 (paper Fig. 1)", res2[cdfg.ClassSub])
	}
	if err := s2.Validate(res2); err != nil {
		t.Error(err)
	}
	// With 3 steps one subtractor suffices.
	s3, res3, err := MinimizeSimple(g, 3)
	if err != nil {
		t.Fatalf("Minimize@3: %v", err)
	}
	if res3[cdfg.ClassSub] != 1 {
		t.Errorf("subtractors@3 = %d, want 1 (paper Fig. 2)", res3[cdfg.ClassSub])
	}
	if err := s3.Validate(res3); err != nil {
		t.Error(err)
	}
}

// TestMinimizeRejectsBadShape pins that Minimize rejects a budget or II
// outside List's domain with List's own error, before computing the
// per-class lower bound (which divides by the II).
func TestMinimizeRejectsBadShape(t *testing.T) {
	g := absDiff(t)
	for _, c := range []struct{ budget, ii int }{{1, 0}, {1, -1}, {2, 3}, {0, 0}} {
		_, listErr := List(g, c.budget, c.ii, nil)
		if listErr == nil {
			t.Fatalf("List(%d, %d) accepted a bad shape", c.budget, c.ii)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Minimize(%d, %d) panicked: %v", c.budget, c.ii, r)
				}
			}()
			s, res, err := Minimize(g, c.budget, c.ii)
			if err == nil || err.Error() != listErr.Error() {
				t.Errorf("Minimize(%d, %d) error = %v, want List's %v", c.budget, c.ii, err, listErr)
			}
			if s != nil || res != nil {
				t.Errorf("Minimize(%d, %d) returned a schedule or resources with its error", c.budget, c.ii)
			}
		}()
	}
}

func TestModuloSchedulingSharesSlots(t *testing.T) {
	// Four independent adds, budget 4, II 2: modulo slots force 2 adders.
	g := cdfg.New("pipe")
	a := cdfg.MustAdd(g.AddInput("a"))
	b := cdfg.MustAdd(g.AddInput("b"))
	for i, name := range []string{"s1", "s2", "s3", "s4"} {
		id := cdfg.MustAdd(g.AddOp(cdfg.KindAdd, name, a, b))
		_ = i
		cdfg.MustAdd(g.AddOutput("o"+name, id))
	}
	s, res, err := Minimize(g, 4, 2)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res[cdfg.ClassAdd] != 2 {
		t.Errorf("adders = %d, want 2 for II=2", res[cdfg.ClassAdd])
	}
	if err := s.Validate(res); err != nil {
		t.Error(err)
	}
	use := s.Usage()
	if use[cdfg.ClassAdd] > 2 {
		t.Errorf("usage = %d adders, want <= 2", use[cdfg.ClassAdd])
	}
}

func TestUsageNonPipelined(t *testing.T) {
	g := absDiff(t)
	s, _, err := MinimizeSimple(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Usage()
	if u[cdfg.ClassSub] != 2 || u[cdfg.ClassComp] != 1 || u[cdfg.ClassMux] != 1 {
		t.Errorf("usage = %v", u)
	}
}

func TestScheduleStringDeterministic(t *testing.T) {
	g := absDiff(t)
	s, _, err := MinimizeSimple(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if !strings.Contains(str, "step 1") || !strings.Contains(str, "absdiff") {
		t.Errorf("String() = %q", str)
	}
	if str != s.String() {
		t.Error("String not deterministic")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g := absDiff(t)
	s, res, err := MinimizeSimple(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Precedence violation: move mux before its inputs.
	bad := *s
	bad.Time = append(Times(nil), s.Time...)
	bad.Time[g.Lookup("m")] = 1
	if err := bad.Validate(res); err == nil {
		t.Error("precedence violation not caught")
	}
	// Budget violation.
	bad2 := *s
	bad2.Time = append(Times(nil), s.Time...)
	bad2.Time[g.Lookup("m")] = 9
	if err := bad2.Validate(res); err == nil {
		t.Error("budget violation not caught")
	}
	// Input scheduled late.
	bad3 := *s
	bad3.Time = append(Times(nil), s.Time...)
	bad3.Time[g.Lookup("a")] = 1
	if err := bad3.Validate(res); err == nil {
		t.Error("input at step 1 not caught")
	}
	// Resource violation: both subs in one step with 1 subtractor.
	s2, _, err := MinimizeSimple(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(Resources{cdfg.ClassSub: 1}); err == nil {
		t.Error("resource violation not caught")
	}
	// Shape violation.
	bad4 := *s
	bad4.II = 0
	if err := bad4.Validate(nil); err == nil {
		t.Error("II=0 not caught")
	}
}

func TestResourcesHelpers(t *testing.T) {
	r := Resources{cdfg.ClassAdd: 2, cdfg.ClassMul: 1}
	c := r.Clone()
	c[cdfg.ClassAdd] = 9
	if r[cdfg.ClassAdd] != 2 {
		t.Error("Clone is shallow")
	}
	if r.Total() != 3 {
		t.Errorf("Total = %d, want 3", r.Total())
	}
	if got := r.String(); !strings.Contains(got, "add=2") || !strings.Contains(got, "mul=1") {
		t.Errorf("String = %q", got)
	}
	if Resources(nil).String() != "(none)" {
		t.Errorf("empty String = %q", Resources(nil).String())
	}
}

// randomDAG mirrors the cdfg test helper.
func randomDAG(r *rand.Rand, n int) *cdfg.Graph {
	g := cdfg.New("rand")
	a := cdfg.MustAdd(g.AddInput("in0"))
	b := cdfg.MustAdd(g.AddInput("in1"))
	ids := []cdfg.NodeID{a, b}
	kinds := []cdfg.Kind{cdfg.KindAdd, cdfg.KindSub, cdfg.KindMul, cdfg.KindGt}
	for i := 0; i < n; i++ {
		x := ids[r.Intn(len(ids))]
		y := ids[r.Intn(len(ids))]
		k := kinds[r.Intn(len(kinds))]
		name := "n" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
		id := cdfg.MustAdd(g.AddOp(k, name, x, y))
		ids = append(ids, id)
	}
	cdfg.MustAdd(g.AddOutput("out", ids[len(ids)-1]))
	return g
}

func TestPropertyMinimizeProducesValidSchedules(t *testing.T) {
	f := func(seed int64, size, extra uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%30)+2)
		mb, err := MinBudget(g)
		if err != nil {
			return false
		}
		budget := mb + int(extra%4)
		s, res, err := MinimizeSimple(g, budget)
		if err != nil {
			return false
		}
		return s.Validate(res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScheduleWithinWindow(t *testing.T) {
	f := func(seed int64, size, extra uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%30)+2)
		mb, err := MinBudget(g)
		if err != nil {
			return false
		}
		budget := mb + int(extra%4)
		s, _, err := MinimizeSimple(g, budget)
		if err != nil {
			return false
		}
		w, err := AnalyzeWindow(g, budget)
		if err != nil {
			return false
		}
		for _, nd := range g.Nodes() {
			if !nd.IsOp() {
				continue
			}
			if s.Time[nd.ID] < w.ASAP[nd.ID] || s.Time[nd.ID] > w.ALAP[nd.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMoreStepsNeverMoreUnits(t *testing.T) {
	// Resource demand is monotonically non-increasing in the budget for
	// the total unit count found by Minimize on random DAGs. The greedy
	// list heuristic could in principle violate per-class monotonicity,
	// so we check the documented weaker invariant: the lower bound holds
	// and scheduling succeeds at every budget >= critical path.
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, int(size%25)+2)
		mb, err := MinBudget(g)
		if err != nil {
			return false
		}
		for b := mb; b < mb+3; b++ {
			if _, _, err := MinimizeSimple(g, b); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTimesClone(t *testing.T) {
	var nilT Times
	if nilT.Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
	orig := Times{1, 2, 3}
	c := orig.Clone()
	c[0] = 9
	if orig[0] != 1 || len(c) != 3 || c[1] != 2 {
		t.Fatalf("clone aliases: orig=%v clone=%v", orig, c)
	}
}
