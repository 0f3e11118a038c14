package flow

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/silage"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// reuseDesign is one input of TestBaselineReuseMatchesRecompute.
type reuseDesign struct {
	name  string
	graph *cdfg.Graph
	width int
}

// reuseDesigns returns the paper circuits, the extras, and 40 generated
// designs: 20 conditional-free 150-op datapaths and 20 small
// conditional-rich designs.
func reuseDesigns(t *testing.T) []reuseDesign {
	t.Helper()
	var out []reuseDesign
	circuits := append([]*bench.Circuit{bench.AbsDiff()}, bench.All()...)
	for _, c := range append(circuits, bench.Extras()...) {
		out = append(out, reuseDesign{c.Name, c.Graph(), c.Design.Width})
	}
	for i := 0; i < 40; i++ {
		cfg := gen.Default()
		cfg.Ops = 20
		if i%2 == 0 {
			cfg.Ops, cfg.MuxFanIn = 150, 1
		}
		seed := int64(1000 + i)
		d, err := silage.Compile(gen.Source(seed, cfg))
		if err != nil {
			t.Fatalf("gen seed %d: %v", seed, err)
		}
		out = append(out, reuseDesign{fmt.Sprintf("gen%d(ops=%d)", seed, cfg.Ops), d.Graph, d.Width})
	}
	return out
}

// TestBaselineReuseMatchesRecompute pins the baseline pass's reuse rule:
// wherever it hands the baseline the PM pass's artifacts, they must equal,
// field by field and in emitted RTL, what the traditional flow computes
// from scratch. The oracle's PM-versus-baseline stages cannot see a wrong
// rule once both sides are one object, so this test compares against an
// independent recomputation instead. It also pins on-demand controllers:
// the standard pipeline leaves both unbuilt, and the ones Controllers
// builds later equal ctrl.Build run from scratch.
func TestBaselineReuseMatchesRecompute(t *testing.T) {
	reused := 0
	for _, d := range reuseDesigns(t) {
		cp, err := d.graph.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []core.Config
		for b := cp; b <= cp+3; b++ {
			cfgs = append(cfgs, core.Config{Budget: b})
		}
		cfgs = append(cfgs, core.Config{Budget: 2 * cp, II: cp})
		// Fixed hardware: one unit of every class more than the PM
		// pass's minimum, so the fixed-bag schedule is not the
		// minimizing one.
		pm, err := core.Schedule(d.graph, core.Config{Budget: cp + 2, Weights: power.Weights})
		if err != nil {
			t.Fatal(err)
		}
		fixed := pm.Resources.Clone()
		for c := range fixed {
			fixed[c]++
		}
		cfgs = append(cfgs, core.Config{Budget: cp + 2, Resources: fixed})

		for _, cfg := range cfgs {
			cfg.Weights = power.Weights
			pt := fmt.Sprintf("%s budget=%d ii=%d fixed=%v", d.name, cfg.Budget, cfg.II, cfg.Resources != nil)
			fc := &Context{Graph: d.graph, Width: d.width, Config: cfg}
			if err := Standard().Run(fc); err != nil {
				t.Errorf("%s: %v", pt, err)
				continue
			}
			if fc.BaselineSchedule == fc.PM.Schedule {
				reused++
				if len(fc.PM.Graph.ControlEdges()) > 0 || cfg.Resources != nil {
					t.Errorf("%s: baseline reused the PM schedule (%d control edges, fixed resources %v)",
						pt, len(fc.PM.Graph.ControlEdges()), cfg.Resources)
				}
			}
			if fc.Controller != nil || fc.BaselineController != nil {
				t.Errorf("%s: the standard pipeline built a controller", pt)
			}
			compareBaseline(t, pt, fc)
		}
	}
	if reused == 0 {
		t.Error("the reuse branch was never taken")
	}
	t.Logf("baseline reused the PM artifacts at %d points", reused)
}

// compareBaseline checks fc's baseline against core.Baseline, alloc.Bind
// and ctrl.Build run from scratch, and fc's on-demand PM controller
// against ctrl.Build over the PM schedule and a fresh binding.
func compareBaseline(t *testing.T, pt string, fc *Context) {
	t.Helper()
	s, res, err := core.Baseline(fc.Graph, fc.Config.Budget, fc.Config.II)
	if err != nil {
		t.Fatalf("%s: recompute: %v", pt, err)
	}
	b := alloc.Bind(s, nil)
	ctl, err := ctrl.Build(s, b, nil, false)
	if err != nil {
		t.Fatalf("%s: recompute: %v", pt, err)
	}
	pmCtl, err := ctrl.Build(fc.PM.Schedule, alloc.Bind(fc.PM.Schedule, fc.PM.Guards), fc.PM.Guards, true)
	if err != nil {
		t.Fatalf("%s: recompute: %v", pt, err)
	}
	gotPM, gc, err := fc.Controllers()
	if err != nil {
		t.Fatalf("%s: controllers: %v", pt, err)
	}

	gs, gb := fc.BaselineSchedule, fc.BaselineBinding
	for _, c := range []struct {
		field string
		same  bool
	}{
		{"schedule times", slices.Equal(gs.Time, s.Time)},
		{"schedule steps", gs.Steps == s.Steps},
		{"schedule II", gs.II == s.II},
		{"resources", maps.Equal(fc.BaselineResources, res)},
		{"binding UnitOf", slices.Equal(gb.UnitOf, b.UnitOf)},
		{"binding Units", maps.Equal(gb.Units, b.Units)},
	} {
		if !c.same {
			t.Errorf("%s: baseline %s differ from the recomputation", pt, c.field)
		}
	}
	compareController(t, pt+" baseline", fc.Width, gc, ctl)
	compareController(t, pt+" PM", fc.Width, gotPM, pmCtl)
}

// compareController checks an on-demand controller against one built from
// scratch, field by field and in emitted VHDL and Verilog.
func compareController(t *testing.T, pt string, width int, got, want *ctrl.Controller) {
	t.Helper()
	for _, c := range []struct {
		field string
		same  bool
	}{
		{"Loads", reflect.DeepEqual(got.Loads, want.Loads)},
		{"UnitLoads", reflect.DeepEqual(got.UnitLoads, want.UnitLoads)},
		{"PM", got.PM == want.PM},
		{"Steps", got.Steps == want.Steps},
		{"schedule", slices.Equal(got.Schedule.Time, want.Schedule.Time)},
		{"binding", slices.Equal(got.Binding.UnitOf, want.Binding.UnitOf)},
	} {
		if !c.same {
			t.Errorf("%s: controller %s differ from the recomputation", pt, c.field)
		}
	}
	for _, emit := range []struct {
		lang string
		gen  func(*ctrl.Controller, int) (string, error)
	}{{"VHDL", vhdl.Generate}, {"Verilog", verilog.Generate}} {
		g, err := emit.gen(got, width)
		if err != nil {
			t.Fatalf("%s: %s: %v", pt, emit.lang, err)
		}
		w, err := emit.gen(want, width)
		if err != nil {
			t.Fatalf("%s: recomputed %s: %v", pt, emit.lang, err)
		}
		if g != w {
			t.Errorf("%s: %s differs from the recomputation's", pt, emit.lang)
		}
	}
}
