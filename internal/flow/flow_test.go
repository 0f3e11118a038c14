package flow

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/silage"
	"repro/internal/telemetry"
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

func compile(t *testing.T) *silage.Design {
	t.Helper()
	d, err := silage.Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runTraced runs p over fc under a fresh trace and returns the names of
// the pass spans it recorded, in start order.
func runTraced(p *Pipeline, fc *Context) ([]string, error) {
	tr := telemetry.NewTrace("flow-test")
	fc.Ctx = telemetry.WithTrace(context.Background(), tr)
	err := p.Run(fc)
	var passes []string
	for _, n := range tr.Snapshot().Roots {
		if strings.HasPrefix(n.Name, "pass:") {
			passes = append(passes, n.Name)
		}
	}
	return passes, err
}

func TestStandardPassOrder(t *testing.T) {
	want := []string{"schedule", "bind", "baseline", "activity"}
	got := Standard().Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestStandardProducesAllArtifacts(t *testing.T) {
	d := compile(t)
	fc := &Context{
		Graph:  d.Graph,
		Width:  d.Width,
		Config: core.Config{Budget: 3, Weights: power.Weights},
	}
	passes, err := runTraced(Standard(), fc)
	if err != nil {
		t.Fatal(err)
	}
	if fc.PM == nil || fc.Binding == nil {
		t.Fatal("missing PM artifacts")
	}
	if fc.BaselineSchedule == nil || fc.BaselineBinding == nil {
		t.Fatal("missing baseline artifacts")
	}
	if !fc.ActivityExact {
		t.Error("absdiff activity should be exact")
	}
	if want := []string{"pass:schedule", "pass:bind", "pass:baseline", "pass:activity"}; !slices.Equal(passes, want) {
		t.Errorf("pass spans = %v, want %v", passes, want)
	}
	if fc.PM.NumManaged() != 1 {
		t.Errorf("absdiff@3 managed = %d, want 1", fc.PM.NumManaged())
	}

	// Controllers are built on demand, once.
	if fc.Controller != nil || fc.BaselineController != nil {
		t.Fatal("the standard pipeline built a controller")
	}
	pm, base, err := fc.Controllers()
	if err != nil {
		t.Fatal(err)
	}
	if pm == nil || base == nil || fc.Controller != pm || fc.BaselineController != base {
		t.Fatalf("controllers = %p/%p, fields %p/%p", pm, base, fc.Controller, fc.BaselineController)
	}
	if !pm.PM || base.PM {
		t.Errorf("PM flags = %v/%v, want true/false", pm.PM, base.PM)
	}
	if pm2, base2, _ := fc.Controllers(); pm2 != pm || base2 != base {
		t.Error("a second Controllers call built new controllers")
	}
}

// TestControllersNeedTheBaseline: a context whose pipeline stopped before
// the baseline pass has no controllers to build.
func TestControllersNeedTheBaseline(t *testing.T) {
	d := compile(t)
	fc := &Context{Graph: d.Graph, Width: d.Width, Config: core.Config{Budget: 3}}
	if err := New(SchedulePass{}, BindPass{}).Run(fc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fc.Controllers(); err == nil {
		t.Fatal("Controllers succeeded without the baseline pass")
	}
}

// TestCheckBound feeds the bind and baseline passes' per-op checks the two
// faults ctrl.Build rejects: an op scheduled outside [1, Steps], caught
// before alloc.Bind (which requires the range), and an op without a unit.
func TestCheckBound(t *testing.T) {
	d := compile(t)
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind(r.Schedule, r.Guards)
	if err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	d1 := r.Graph.Lookup("d1")

	late := *r.Schedule
	late.Time = r.Schedule.Time.Clone()
	late.Time[d1] = 0
	if _, err := bind(&late, r.Guards); err == nil || !strings.Contains(err.Error(), `op "d1" scheduled at 0 outside [1,3]`) {
		t.Errorf("op at step 0: err = %v", err)
	}

	missing := &alloc.Binding{UnitOf: slices.Clone(b.UnitOf), Units: b.Units}
	missing.UnitOf[d1] = alloc.Unit{}
	if err := checkBound(r.Schedule, missing); err == nil || !strings.Contains(err.Error(), `op "d1" has no unit`) {
		t.Errorf("unbound op: err = %v", err)
	}
}

// TestBindPassRejectsOpOutsideSteps hands the bind pass a schedule with one
// op a step past the budget: the pass fails with the range error instead
// of binding it.
func TestBindPassRejectsOpOutsideSteps(t *testing.T) {
	d := compile(t)
	r, err := core.Schedule(d.Graph, core.Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	late := *r.Schedule
	late.Time = r.Schedule.Time.Clone()
	late.Time[r.Graph.Lookup("d1")] = late.Steps + 1
	pm := *r
	pm.Schedule = &late
	fc := &Context{Graph: d.Graph, Width: d.Width, Config: core.Config{Budget: 3}, PM: &pm}
	if err := (BindPass{}).Run(fc); err == nil || !strings.Contains(err.Error(), `op "d1" scheduled at 4 outside [1,3]`) {
		t.Errorf("op at step 4 of 3: err = %v", err)
	}
	if fc.Binding != nil {
		t.Error("a binding was stored for an invalid schedule")
	}
}

func TestPipelineErrorAbortsAndIsAttributed(t *testing.T) {
	d := compile(t)
	fc := &Context{Graph: d.Graph, Width: d.Width, Config: core.Config{Budget: 1}}
	passes, err := runTraced(Standard(), fc)
	if err == nil {
		t.Fatal("budget below critical path should fail")
	}
	if !strings.Contains(err.Error(), `pass "schedule"`) {
		t.Errorf("error %q does not name the failing pass", err)
	}
	if len(passes) != 1 || passes[0] != "pass:schedule" {
		t.Errorf("pass spans = %v, want [pass:schedule] (abort after first failure)", passes)
	}
	if fc.Binding != nil {
		t.Error("later passes ran after a failure")
	}
}

// cancelPass cancels the run's context, simulating a shutdown arriving
// while a pass executes.
type cancelPass struct{ cancel context.CancelFunc }

func (cancelPass) Name() string         { return "cancel" }
func (p cancelPass) Run(*Context) error { p.cancel(); return nil }

func TestPipelineChecksCancellationBetweenPasses(t *testing.T) {
	d := compile(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &Context{Ctx: ctx, Graph: d.Graph, Width: d.Width, Config: core.Config{Budget: 3}}
	err := New(cancelPass{cancel}, SchedulePass{}).Run(fc)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if fc.PM != nil {
		t.Error("schedule pass ran after cancellation")
	}
}

func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	d := compile(t)
	var cfgs []core.Config
	for b := 2; b <= 6; b++ {
		cfgs = append(cfgs, core.Config{Budget: b, Weights: power.Weights})
	}
	var want []string
	for _, workers := range []int{1, 2, 8} {
		ctxs, err := RunAllPipeline(context.Background(), nil, d.Graph, d.Width, cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(ctxs))
		for i, fc := range ctxs {
			if fc.Err != nil {
				t.Fatalf("workers=%d cfg %d: %v", workers, i, fc.Err)
			}
			got[i] = fc.PM.Schedule.String()
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d cfg %d: schedule differs from workers=1", workers, i)
			}
		}
	}
}

func TestRunAllRecordsPerConfigErrors(t *testing.T) {
	d := compile(t)
	cfgs := []core.Config{
		{Budget: 3, Weights: power.Weights},
		{Budget: 1}, // below the critical path
		{Budget: 4, Weights: power.Weights},
	}
	ctxs, err := RunAllPipeline(context.Background(), nil, d.Graph, d.Width, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ctxs[0].Err != nil || ctxs[2].Err != nil {
		t.Errorf("good configs failed: %v, %v", ctxs[0].Err, ctxs[2].Err)
	}
	if ctxs[1].Err == nil {
		t.Error("infeasible config did not record an error")
	}
}

func TestRunAllCanceled(t *testing.T) {
	d := compile(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []core.Config{{Budget: 3}, {Budget: 4}}
	ctxs, err := RunAllPipeline(ctx, nil, d.Graph, d.Width, cfgs, 1)
	if err == nil {
		t.Fatal("canceled context should surface an error")
	}
	if len(ctxs) != len(cfgs) {
		t.Fatalf("got %d contexts, want %d slots", len(ctxs), len(cfgs))
	}
}
