package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/power"
)

func TestExplainAbsDiff(t *testing.T) {
	g := compile(t, absDiffSrc)
	// Budget 2: no slack.
	r2, err := Explain(g, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2) != 1 {
		t.Fatalf("reports = %d, want 1", len(r2))
	}
	if r2[0].Verdict != VerdictNoSlack {
		t.Errorf("budget 2 verdict = %v, want insufficient slack", r2[0].Verdict)
	}
	// Budget 3: managed.
	r3, err := Explain(g, Config{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r3[0].Verdict != VerdictManaged {
		t.Errorf("budget 3 verdict = %v, want managed", r3[0].Verdict)
	}
	if len(r3[0].GatedTrue) != 1 || len(r3[0].GatedFalse) != 1 {
		t.Errorf("gated sets %v/%v", r3[0].GatedTrue, r3[0].GatedFalse)
	}
	text := FormatReports(g, r3)
	if !strings.Contains(text, "managed") || !strings.Contains(text, "out") {
		t.Errorf("formatted report = %q", text)
	}
}

func TestExplainNothingToGate(t *testing.T) {
	// Mux over primary inputs: nothing to gate.
	src := `
func p(a: num<8>, b: num<8>, s: bool) o: num<8> =
begin
    o = if s -> a || b fi;
end
`
	g := compile(t, src)
	r, err := Explain(g, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Verdict != VerdictNothingToGate {
		t.Errorf("verdict = %v", r[0].Verdict)
	}
	if !strings.Contains(r[0].Detail, "primary") {
		t.Errorf("detail = %q", r[0].Detail)
	}
}

func TestExplainSharedBranches(t *testing.T) {
	src := `
func s(a: num<8>, b: num<8>) o: num<8> =
begin
    c = a > b;
    t = a + b;
    o = if c -> t || t fi;
end
`
	g := compile(t, src)
	r, err := Explain(g, Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Verdict != VerdictNothingToGate {
		t.Errorf("verdict = %v", r[0].Verdict)
	}
	if !strings.Contains(r[0].Detail, "both branches") {
		t.Errorf("detail = %q", r[0].Detail)
	}
}

func TestExplainControlConeOverlap(t *testing.T) {
	src := `
func cc(a: num<8>, b: num<8>) o: num<8> =
begin
    s = a - b;
    c = s > 4;
    o = if c -> s || b fi;
end
`
	g := compile(t, src)
	r, err := Explain(g, Config{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Verdict != VerdictNothingToGate {
		t.Errorf("verdict = %v", r[0].Verdict)
	}
	if !strings.Contains(r[0].Detail, "select") {
		t.Errorf("detail = %q", r[0].Detail)
	}
}

func TestExplainErrors(t *testing.T) {
	g := compile(t, absDiffSrc)
	if _, err := Explain(g, Config{Budget: 0}); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := Explain(g, Config{Budget: 1}); err == nil {
		t.Error("budget below critical path accepted")
	}
}

// TestExplainMatchesSchedule: Explain reports the pass Schedule keeps, so
// its managed muxes and their gated sets are exactly Schedule's, in order,
// under every order strategy.
func TestExplainMatchesSchedule(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for _, ng := range oracleGraphs(t, n) {
		g := ng.g
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		for budget := cp; budget <= cp+3; budget++ {
			for _, o := range []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight} {
				cfg := Config{Budget: budget, Order: o, Weights: power.Weights}
				reports, err := Explain(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Schedule(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var explained []ManagedMux
				for _, r := range reports {
					if r.Verdict == VerdictManaged {
						explained = append(explained, ManagedMux{Mux: r.Mux, GatedTrue: r.GatedTrue, GatedFalse: r.GatedFalse})
					}
				}
				if !sameManaged(explained, res.Managed) {
					t.Errorf("%s budget %d %v: explain manages %v, schedule %v",
						ng.name, budget, o, explained, res.Managed)
				}
			}
		}
	}
}

// sameManaged compares two managed-mux lists by mux and gated sets.
func sameManaged(a, b []ManagedMux) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Mux != b[i].Mux || !slices.Equal(a[i].GatedTrue, b[i].GatedTrue) ||
			!slices.Equal(a[i].GatedFalse, b[i].GatedFalse) {
			return false
		}
	}
	return true
}

func TestVerdictString(t *testing.T) {
	for _, v := range []MuxVerdict{VerdictManaged, VerdictNothingToGate, VerdictNoSlack} {
		if v.String() == "" {
			t.Error("empty verdict name")
		}
	}
	if MuxVerdict(9).String() == "" {
		t.Error("unknown verdict should print")
	}
}
