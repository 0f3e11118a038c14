package alloc

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/gen"
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

func pmResult(t *testing.T, src string, budget int) *core.Result {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMutualExclusionSharing: the two gated subtractions land in the same
// step of the PM schedule but share one subtractor because their guards
// are complementary (paper §II.C).
func TestMutualExclusionSharing(t *testing.T) {
	r := pmResult(t, absDiffSrc, 3)
	b := Bind(r.Schedule, r.Guards)
	if b.Units[cdfg.ClassSub] != 1 {
		t.Errorf("subtractor units = %d, want 1 (exclusive sharing)", b.Units[cdfg.ClassSub])
	}
	d1, d2 := r.Graph.Lookup("d1"), r.Graph.Lookup("d2")
	if b.UnitOf[d1] != b.UnitOf[d2] {
		t.Error("gated subs should share a unit")
	}
	if u := b.UnitOf[d1].String(); u != "sub#0" {
		t.Errorf("unit string = %q, want sub#0", u)
	}
	if !MutuallyExclusive(r.Guards, d1, d2) {
		t.Error("gated subs should be mutually exclusive")
	}
	if MutuallyExclusive(r.Guards, d1, r.Graph.Lookup("g")) {
		t.Error("comparator is not exclusive with anything")
	}

	// Only opposite branches of one select prove exclusiveness: ops on
	// the same branch, or gated by different selects, may both execute.
	guards := sim.Guards{
		1: {{Sel: 9, WhenTrue: true}},
		2: {{Sel: 9, WhenTrue: true}},
		3: {{Sel: 8, WhenTrue: false}},
		4: {{Sel: 8, WhenTrue: true}, {Sel: 9, WhenTrue: false}},
	}
	for _, c := range []struct {
		a, b cdfg.NodeID
		want bool
	}{
		{1, 2, false}, // same branch
		{1, 3, false}, // different selects
		{1, 4, true},  // opposite branches of select 9
		{3, 4, true},  // opposite branches of select 8
		{1, 5, false}, // 5 is ungated
	} {
		if got := MutuallyExclusive(guards, c.a, c.b); got != c.want {
			t.Errorf("MutuallyExclusive(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestBaselineNoSharing: without guards, same-step same-class ops need
// distinct units.
func TestBaselineNoSharing(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := sched.MinimizeSimple(d.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Bind(s, nil)
	if b.Units[cdfg.ClassSub] != 2 {
		t.Errorf("baseline subtractors = %d, want 2", b.Units[cdfg.ClassSub])
	}
}

func TestBindingCoversAllOps(t *testing.T) {
	r := pmResult(t, absDiffSrc, 3)
	b := Bind(r.Schedule, r.Guards)
	for _, n := range r.Graph.Nodes() {
		if n.IsOp() {
			if _, ok := b.Lookup(n.ID); !ok {
				t.Errorf("op %q unbound", n.Name)
			}
		} else if _, ok := b.Lookup(n.ID); ok {
			t.Errorf("non-op %q bound", n.Name)
		}
	}
	if len(b.UnitOf) != r.Graph.NumNodes() {
		t.Errorf("UnitOf covers %d nodes, graph has %d", len(b.UnitOf), r.Graph.NumNodes())
	}
	if _, ok := b.Lookup(cdfg.NodeID(r.Graph.NumNodes())); ok {
		t.Error("a node beyond the graph is bound")
	}
}

// TestSharedUnitNeverDoubleBooked: on random schedules with PM guards, no
// unit hosts two non-exclusive ops in the same modulo slot.
func TestSharedUnitNeverDoubleBooked(t *testing.T) {
	srcs := []string{absDiffSrc, `
func v(a: num<8>, b: num<8>) o1: num<8>, o2: num<8> =
begin
    c1 = a > b;
    t1 = a * 3;
    t2 = b * 5;
    o1 = if c1 -> t1 || t2 fi;
    c2 = a < b;
    u1 = a + 1;
    u2 = b + 2;
    o2 = if c2 -> u1 || u2 fi;
end
`}
	for _, src := range srcs {
		d, err := silage.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := d.Graph.CriticalPath()
		for budget := cp; budget < cp+3; budget++ {
			r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: power.Weights})
			if err != nil {
				t.Fatal(err)
			}
			b := Bind(r.Schedule, r.Guards)
			byUnitSlot := make(map[Unit]map[int][]cdfg.NodeID)
			for _, n := range r.Graph.Nodes() {
				u, ok := b.Lookup(n.ID)
				if !ok {
					continue
				}
				id := n.ID
				slot := (r.Schedule.Time[id] - 1) % r.Schedule.II
				if byUnitSlot[u] == nil {
					byUnitSlot[u] = make(map[int][]cdfg.NodeID)
				}
				byUnitSlot[u][slot] = append(byUnitSlot[u][slot], id)
			}
			for u, slots := range byUnitSlot {
				for slot, ops := range slots {
					for i := 0; i < len(ops); i++ {
						for j := i + 1; j < len(ops); j++ {
							if !MutuallyExclusive(r.Guards, ops[i], ops[j]) {
								t.Errorf("budget %d: unit %v slot %d double-booked", budget, u, slot)
							}
						}
					}
				}
			}
		}
	}
}

func TestUnitAreaModel(t *testing.T) {
	// The exact formulas; the rtl package cross-checks these against its
	// own generators.
	if UnitArea(cdfg.ClassAdd, 8) != 48 {
		t.Errorf("adder area = %v", UnitArea(cdfg.ClassAdd, 8))
	}
	if UnitArea(cdfg.ClassSub, 8) != 52 {
		t.Errorf("sub area = %v", UnitArea(cdfg.ClassSub, 8))
	}
	if UnitArea(cdfg.ClassComp, 8) != 52.5 {
		t.Errorf("comp area = %v", UnitArea(cdfg.ClassComp, 8))
	}
	if UnitArea(cdfg.ClassMul, 8) != 6*64+36 {
		t.Errorf("mul area = %v", UnitArea(cdfg.ClassMul, 8))
	}
	if UnitArea(cdfg.ClassMux, 8) != 20 {
		t.Errorf("mux area = %v", UnitArea(cdfg.ClassMux, 8))
	}
	if UnitArea(cdfg.ClassIO, 8) != 0 || UnitArea(cdfg.ClassWire, 8) != 0 {
		t.Error("free classes should have zero area")
	}
}

// TestAreaIncreaseSmall: for absdiff at 3 steps, PM binding with exclusive
// sharing needs the same subtractor count as the baseline, so the area
// ratio stays at 1.0 — matching the paper's "in most cases there is no
// area penalty".
func TestAreaIncreaseSmall(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := pmResult(t, absDiffSrc, 3)
	pmBind := Bind(r.Schedule, r.Guards)

	base, _, err := core.Baseline(d.Graph, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseBind := Bind(base, nil)

	ratio := AreaIncrease(pmBind, baseBind, 8)
	if ratio != 1.0 {
		t.Errorf("area increase = %.3f, want 1.0 (units: pm=%v base=%v)",
			ratio, pmBind.Units, baseBind.Units)
	}
	if pmBind.UnitsArea(8) <= 0 {
		t.Error("area accounting inconsistent")
	}
}

func TestAreaIncreaseEmptyBaseline(t *testing.T) {
	b := &Binding{Units: map[cdfg.Class]int{}}
	if AreaIncrease(b, b, 8) != 1 {
		t.Error("empty baseline should give ratio 1")
	}
}

// TestPipelinedBindingUnitCount: folding a 4-step schedule onto II=2
// modulo slots makes operations collide, so the pipelined binding needs
// about as many adders as the plain 4-step one: the plain binding takes at
// most one more.
func TestPipelinedBindingUnitCount(t *testing.T) {
	d, err := silage.Compile(`
func p(a: num<8>, b: num<8>) o: num<8> =
begin
    t1 = a + b;
    t2 = t1 * 3;
    t3 = t2 - a;
    o  = t3 + 1;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := sched.Minimize(d.Graph, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Bind(s, nil)
	sNon, _, err := sched.MinimizeSimple(d.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	bNon := Bind(sNon, nil)
	if bNon.Units[cdfg.ClassAdd] > b.Units[cdfg.ClassAdd]+1 {
		t.Error("unexpected unit relationship")
	}
}

// TestBindAllocationsDoNotGrowWithTheGraph pins a warm Bind to the
// Binding it returns: the op order comes from a counting pass, the unit
// occupancy lives in flat slices, and both are reused from call to call,
// so cordic's power-managed schedule and a 150-op generated design's cost
// the same count: the Binding, its UnitOf vector and its Units map.
func TestBindAllocationsDoNotGrowWithTheGraph(t *testing.T) {
	cordic := bench.Cordic().Graph()
	cp, err := cordic.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	small, err := core.Schedule(cordic, core.Config{Budget: cp + 4, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Guards) == 0 {
		t.Fatal("cordic's schedule gates nothing; the guard needs shared units")
	}

	cfg := gen.Default()
	cfg.Ops = 150
	d, err := silage.Compile(gen.Source(7, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if cp, err = d.Graph.CriticalPath(); err != nil {
		t.Fatal(err)
	}
	large, err := core.Schedule(d.Graph, core.Config{Budget: cp + 2, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	if large.Graph.NumNodes() <= small.Graph.NumNodes() {
		t.Fatalf("generated design has %d nodes, want more than cordic's %d", large.Graph.NumNodes(), small.Graph.NumNodes())
	}

	allocs := func(r *core.Result) float64 {
		return testing.AllocsPerRun(20, func() { Bind(r.Schedule, r.Guards) })
	}
	a, b := allocs(small), allocs(large)
	t.Logf("Bind allocations: cordic %v (%d nodes), generated %v (%d nodes)", a, small.Graph.NumNodes(), b, large.Graph.NumNodes())
	const ceiling = 4
	if a != b || a > ceiling {
		t.Errorf("Bind allocates %v on cordic and %v on the generated design, want the same count of at most %d", a, b, ceiling)
	}
}
