package bench

import (
	"testing"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestDiffEqShape(t *testing.T) {
	c := DiffEq()
	st, _ := c.Graph().ComputeStats()
	if st.Count[cdfg.ClassMul] != 6 || st.Count[cdfg.ClassAdd] != 2 ||
		st.Count[cdfg.ClassSub] != 2 || st.Count[cdfg.ClassComp] != 1 {
		t.Errorf("diffeq stats = %v", st)
	}
	if st.Count[cdfg.ClassMux] != 0 {
		t.Error("diffeq should have no conditionals")
	}
	// Functional spot check: x=10, dx=2 -> x1 = 12.
	out, err := sim.Evaluate(c.Graph(), map[string]int64{
		"x": 10, "y": 4, "u": 6, "dx": 2, "a": 100,
	}, sim.Options{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out["out:x1"] != 12 {
		t.Errorf("x1 = %d, want 12", out["out:x1"])
	}
	if out["out:go"] != 1 {
		t.Error("go should be 1 for x1 < a")
	}
	// u1 = u - 3xu*dx - 3y*dx (mod 256).
	t3 := (3 * 10 * 6 % 256 * 2) % 256
	t5 := (3 * 4 % 256 * 2) % 256
	want := ((6-t3)%256 + 256) % 256
	want = ((want-t5)%256 + 256) % 256
	if out["out:u1"] != int64(want) {
		t.Errorf("u1 = %d, want %d", out["out:u1"], want)
	}
}

func TestDiffEqScheduling(t *testing.T) {
	c := DiffEq()
	// Multiplier pressure: at the critical path (5) the six multiplies
	// squeeze into few steps; more budget, fewer multipliers.
	s5, res5, err := sched.MinimizeSimple(c.Graph(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s5.Validate(res5); err != nil {
		t.Error(err)
	}
	_, res8, err := sched.MinimizeSimple(c.Graph(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res8[cdfg.ClassMul] > res5[cdfg.ClassMul] {
		t.Errorf("more budget should not need more multipliers: %d > %d",
			res8[cdfg.ClassMul], res5[cdfg.ClassMul])
	}
	// No conditionals: the PM pass is a no-op but must succeed.
	r, err := core.Schedule(c.Graph(), core.Config{Budget: 6, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() != 0 || len(r.Guards) != 0 {
		t.Error("diffeq has nothing to manage")
	}
}

func TestEWFShape(t *testing.T) {
	c := EWF()
	st, _ := c.Graph().ComputeStats()
	if st.Count[cdfg.ClassAdd] != 26 || st.Count[cdfg.ClassMul] != 8 {
		t.Errorf("ewf stats = %v, want 26 adds and 8 muls", st)
	}
	if st.Count[cdfg.ClassMux] != 0 {
		t.Error("ewf should have no conditionals")
	}
}

func TestEWFSchedulingStress(t *testing.T) {
	c := EWF()
	cp := c.PaperStats.CriticalPath
	// The scheduler handles the filter across a budget sweep with
	// sensible resource trends.
	prevTotal := 1 << 30
	for _, budget := range []int{cp, cp + 3, cp + 6} {
		s, res, err := sched.MinimizeSimple(c.Graph(), budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := s.Validate(res); err != nil {
			t.Fatal(err)
		}
		if res.Total() > prevTotal {
			t.Errorf("budget %d: units %d grew from %d", budget, res.Total(), prevTotal)
		}
		prevTotal = res.Total()
	}
}

func TestDecodePMRich(t *testing.T) {
	c := Decode()
	st, _ := c.Graph().ComputeStats()
	if st.Count[cdfg.ClassMux] != 3 {
		t.Fatalf("decode muxes = %d, want 3", st.Count[cdfg.ClassMux])
	}
	r, err := core.Schedule(c.Graph(), core.Config{Budget: 5, Weights: power.Weights})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumManaged() < 2 {
		t.Errorf("decode managed = %d, want >= 2", r.NumManaged())
	}
	act, _ := power.AnalyzeExact(r.Graph, r.Guards)
	ops := act.ExpectedOps(r.Graph)
	// The multiply is used only on the !isalu & islog path: under
	// equiprobable selects it executes well below 1.0.
	if ops[cdfg.ClassMul] >= 1.0 {
		t.Errorf("E[mul] = %.2f, want < 1.0", ops[cdfg.ClassMul])
	}
	// Semantics across representative opcodes.
	for _, op := range []int64{5, 40, 70, 120, 200} {
		in := map[string]int64{"op": op, "a": 17, "b": 5}
		want, err := sim.Evaluate(c.Graph(), in, sim.Options{Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.ExecuteScheduled(r.Schedule, r.Guards, in, sim.Options{Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got.Outputs["out:r"] != want["out:r"] {
			t.Errorf("op %d: %d != %d", op, got.Outputs["out:r"], want["out:r"])
		}
	}
}

func TestExtrasListed(t *testing.T) {
	ex := Extras()
	if len(ex) != 3 {
		t.Fatalf("extras = %d", len(ex))
	}
	for _, c := range ex {
		if c.Design == nil || len(c.Budgets) == 0 {
			t.Errorf("%s incomplete", c.Name)
		}
		if err := c.Graph().Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
