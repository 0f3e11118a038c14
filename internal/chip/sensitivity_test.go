package chip

import (
	"math/rand"
	"testing"

	"repro/internal/silage"
)

// TestConditionProbabilitySensitivity documents the gate-level finding
// discussed in EXPERIMENTS.md: realized savings track how often the gating
// condition fires. For absdiff gated on a>b, a stream where a>b almost
// always holds gates d2 nearly always (good) but never exercises d1's
// shut-down; a balanced stream shuts each subtraction down half the time.
// Either way exactly one subtraction executes per sample, so both streams
// should save — but a stream where the CONDITION REGISTER itself never
// toggles also saves on control switching. The test asserts the weaker,
// robust property: savings are positive for balanced, skewed-true and
// skewed-false streams alike.
func TestConditionProbabilitySensitivity(t *testing.T) {
	g := silage.MustCompile(absDiffSrc).Graph
	pm, base := controllers(t, g, 3, 8)
	mk := func(gen func(r *rand.Rand) (int64, int64)) []map[string]int64 {
		r := rand.New(rand.NewSource(42))
		out := make([]map[string]int64, 120)
		for i := range out {
			a, b := gen(r)
			out[i] = map[string]int64{"a": a, "b": b}
		}
		return out
	}
	streams := map[string][]map[string]int64{
		"balanced": mk(func(r *rand.Rand) (int64, int64) {
			return r.Int63n(256), r.Int63n(256)
		}),
		"mostly-greater": mk(func(r *rand.Rand) (int64, int64) {
			return 128 + r.Int63n(128), r.Int63n(128)
		}),
		"mostly-less": mk(func(r *rand.Rand) (int64, int64) {
			return r.Int63n(128), 128 + r.Int63n(128)
		}),
	}
	for name, vectors := range streams {
		rep, err := Compare(pm, base, 8, vectors)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.PowerReductionPct() <= 0 {
			t.Errorf("%s: no savings (%.1f%%)", name, rep.PowerReductionPct())
		}
	}
}

func TestCompareWithVectorsValidation(t *testing.T) {
	pm, base := controllers(t, silage.MustCompile(absDiffSrc).Graph, 3, 8)
	if _, err := Compare(pm, base, 8, nil); err == nil {
		t.Error("empty vector stream accepted")
	}
	// Missing input in a vector must surface as an error.
	_, err := Compare(pm, base, 8, []map[string]int64{{"a": 1}})
	if err == nil {
		t.Error("missing input accepted")
	}
}
