package ctrl

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
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

func buildControllers(t *testing.T, src string, budget int) (*core.Result, *Controller, *Controller) {
	t.Helper()
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: budget, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	pm, err := Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Build(r.Schedule, b, r.Guards, false)
	if err != nil {
		t.Fatal(err)
	}
	return r, pm, orig
}

func TestControllerShape(t *testing.T) {
	r, pm, orig := buildControllers(t, absDiffSrc, 3)
	if pm.Steps != 3 || orig.Steps != 3 {
		t.Errorf("steps = %d/%d, want 3", pm.Steps, orig.Steps)
	}
	// Loads: 2 inputs at step 0 + 4 ops.
	if len(pm.Loads) != 6 {
		t.Errorf("loads = %d, want 6", len(pm.Loads))
	}
	if len(pm.UnitLoads) != 4 {
		t.Errorf("unit loads = %d, want 4", len(pm.UnitLoads))
	}
	// Unit loads happen one step before execution.
	for _, ul := range pm.UnitLoads {
		if ul.Step != r.Schedule.Time[ul.Op]-1 {
			t.Errorf("unit load for %d at %d, op at %d", ul.Op, ul.Step, r.Schedule.Time[ul.Op])
		}
	}
}

func TestGuardsOnlyInPMController(t *testing.T) {
	r, pm, orig := buildControllers(t, absDiffSrc, 3)
	for _, ld := range orig.Loads {
		if len(ld.Guards) != 0 {
			t.Errorf("baseline load of %d carries guards %v", ld.Node, ld.Guards)
		}
	}
	for _, ul := range orig.UnitLoads {
		if len(ul.Guards) != 0 {
			t.Errorf("baseline unit load of %d carries guards %v", ul.Op, ul.Guards)
		}
	}
	if !pm.PM || orig.PM {
		t.Error("PM flags wrong")
	}
	// The gated subs carry exactly one guard each on both load kinds.
	for _, name := range []string{"d1", "d2"} {
		id := r.Graph.Lookup(name)
		found := false
		for _, ld := range pm.Loads {
			if ld.Node == id {
				found = true
				if len(ld.Guards) != 1 {
					t.Errorf("%s load guards = %d, want 1", name, len(ld.Guards))
				}
			}
		}
		if !found {
			t.Errorf("%s has no load", name)
		}
	}
}

func TestActivationsMatchGatedSim(t *testing.T) {
	r, pm, orig := buildControllers(t, absDiffSrc, 3)
	g := r.Graph
	sel := g.Lookup("g")
	// Condition true: d1 loads, d2 does not.
	acts := pm.Activations(map[cdfg.NodeID]bool{sel: true})
	if !acts[g.Lookup("d1")] || acts[g.Lookup("d2")] {
		t.Error("PM activations wrong for true condition")
	}
	acts = pm.Activations(map[cdfg.NodeID]bool{sel: false})
	if acts[g.Lookup("d1")] || !acts[g.Lookup("d2")] {
		t.Error("PM activations wrong for false condition")
	}
	// Baseline loads everything regardless.
	acts = orig.Activations(map[cdfg.NodeID]bool{sel: false})
	if !acts[g.Lookup("d1")] || !acts[g.Lookup("d2")] {
		t.Error("baseline should load both subs")
	}
	// Cross-check against the gated executor.
	res, err := sim.ExecuteScheduled(r.Schedule, r.Guards, map[string]int64{"a": 9, "b": 4}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctl := pm.Activations(map[cdfg.NodeID]bool{sel: true})
	for _, name := range []string{"g", "d1", "d2", "out"} {
		id := g.Lookup(name)
		if ctl[id] != res.Executed[id] {
			t.Errorf("%s: controller %v, executor %v", name, ctl[id], res.Executed[id])
		}
	}
}

func TestActivationsNestedGuardChain(t *testing.T) {
	src := `
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
	d, err := silage.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := d.Graph.CriticalPath()
	r, err := core.Schedule(d.Graph, core.Config{Budget: cp + 2, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	b := alloc.Bind(r.Schedule, r.Guards)
	pm, err := Build(r.Schedule, b, r.Guards, true)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Graph
	outer, inner := g.Lookup("outer"), g.Lookup("inner")
	// Outer false: even with inner "true", the inner ops must not load —
	// their guard's select never loaded.
	acts := pm.Activations(map[cdfg.NodeID]bool{outer: false, inner: true})
	for _, name := range []string{"t1", "inner", "t2", "t3", "m"} {
		if acts[g.Lookup(name)] {
			t.Errorf("%s loaded despite outer=false", name)
		}
	}
	acts = pm.Activations(map[cdfg.NodeID]bool{outer: true, inner: false})
	if !acts[g.Lookup("t3")] || acts[g.Lookup("t2")] {
		t.Error("inner gating wrong")
	}
}

func TestBuildRejectsForeignBinding(t *testing.T) {
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Empty binding: ops have no units.
	empty := &alloc.Binding{Units: map[cdfg.Class]int{}}
	if _, err := Build(r.Schedule, empty, r.Guards, true); err == nil {
		t.Error("missing unit binding accepted")
	}
}

// TestUnitsGroupLoads checks the grouping the RTL lowering builds each
// unit's operand steering from: every unit load lands in exactly one group, the
// groups come in (class, index) order, and within a group the loads keep
// their UnitLoads order.
func TestUnitsGroupLoads(t *testing.T) {
	shared := false
	for _, c := range bench.All() {
		for _, budget := range c.Budgets {
			_, pm, _ := buildControllers(t, c.Source, budget)
			pos := make(map[cdfg.NodeID]int, len(pm.UnitLoads))
			for i, ul := range pm.UnitLoads {
				pos[ul.Op] = i
			}
			grouped := 0
			units := pm.Units()
			for i, u := range units {
				if i > 0 {
					prev := units[i-1].Unit
					if prev.Class > u.Unit.Class || prev.Class == u.Unit.Class && prev.Index >= u.Unit.Index {
						t.Errorf("%s at %d: unit %v after %v", c.Name, budget, u.Unit, prev)
					}
				}
				if len(u.Loads) > 1 {
					shared = true
				}
				last := -1
				for _, ul := range u.Loads {
					if ul.Unit != u.Unit {
						t.Errorf("%s at %d: load of %v in the group of %v", c.Name, budget, ul.Unit, u.Unit)
					}
					if pos[ul.Op] <= last {
						t.Errorf("%s at %d: %v's loads out of UnitLoads order", c.Name, budget, u.Unit)
					}
					last = pos[ul.Op]
					grouped++
				}
			}
			if grouped != len(pm.UnitLoads) {
				t.Errorf("%s at %d: %d loads grouped, %d unit loads", c.Name, budget, grouped, len(pm.UnitLoads))
			}
		}
	}
	if !shared {
		t.Error("no circuit shares a unit between operations; the order check saw nothing")
	}
}
