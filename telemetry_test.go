package pmsynth

// Telemetry invariants at the public API boundary: tracing must be an
// observer, never a participant — a traced sweep returns byte-identical
// results to an untraced one — and the disabled path must be cheap
// enough to leave on in production (BenchmarkTelemetryOverhead tracks
// the instrumented-vs-plain gap on the gcd sweep).

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// sweepFacts projects a sweep result onto everything a client can
// observe — configurations, rows, errors, emitted RTL, the formatted
// table — excluding only wall-clock times, which differ run to run by
// nature.
func sweepFacts(t testing.TB, res *SweepResult) []byte {
	t.Helper()
	type fact struct {
		Options Options
		Row     Row
		Err     string
		VHDL    string
	}
	facts := make([]fact, len(res.Points))
	for i := range res.Points {
		p := &res.Points[i]
		facts[i] = fact{Options: p.Options, Row: p.Row}
		if p.Err != nil {
			facts[i].Err = p.Err.Error()
		}
		if p.Synthesis != nil {
			v, err := p.Synthesis.VHDL()
			if err != nil {
				t.Fatalf("point %d VHDL: %v", i, err)
			}
			facts[i].VHDL = v
		}
	}
	out, err := json.Marshal(struct {
		Facts []fact
		Table string
	}{facts, res.Table()})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepIdenticalWithTracing pins that tracing never perturbs
// results: the same sweep run with and without an attached trace yields
// byte-identical observable output, while the traced run actually
// records spans.
func TestSweepIdenticalWithTracing(t *testing.T) {
	c := bench.GCD()
	spec := SweepSpec{BudgetMin: 5, BudgetMax: 8, Workers: 1}

	plain, err := SweepContext(context.Background(), c.Design, spec)
	if err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewTrace("")
	traced, err := SweepContext(telemetry.WithTrace(context.Background(), tr), c.Design, spec)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := sweepFacts(t, traced), sweepFacts(t, plain); !bytes.Equal(got, want) {
		t.Fatalf("traced sweep differs from plain sweep:\n%s\n---\n%s", got, want)
	}
	if tr.Len() == 0 {
		t.Fatal("traced sweep recorded no spans")
	}
	// Every point must have produced its point span plus one span per
	// pipeline pass underneath.
	snap := tr.Snapshot()
	points := 0
	var walk func(ns []*telemetry.SpanNode)
	walk = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			if n.Name == "point" {
				points++
				if len(n.Children) == 0 {
					t.Errorf("point span %d has no pass children", n.ID)
				}
			}
			walk(n.Children)
		}
	}
	walk(snap.Roots)
	if points != len(traced.Points) {
		t.Fatalf("trace holds %d point spans, want %d", points, len(traced.Points))
	}
}

// BenchmarkTelemetryOverhead measures the cost of the tracing
// instrumentation on the gcd sweep: "plain" runs with no trace in the
// context (the production default for library callers — every StartSpan
// is the zero-allocation nil path), "traced" runs with a live trace
// recording every span.
func BenchmarkTelemetryOverhead(b *testing.B) {
	c := bench.GCD()
	spec := SweepSpec{BudgetMin: 5, BudgetMax: 10, Workers: 1}
	run := func(b *testing.B, ctx func() context.Context) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := SweepContext(ctx(), c.Design, spec)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) != 6 {
				b.Fatalf("%d points, want 6", len(res.Points))
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		run(b, context.Background)
	})
	b.Run("traced", func(b *testing.B) {
		run(b, func() context.Context {
			return telemetry.WithTrace(context.Background(), telemetry.NewTrace(""))
		})
	})
}
