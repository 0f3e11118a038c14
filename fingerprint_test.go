package pmsynth

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
)

// TestSweepFingerprintNilVsEmptyBudgets is the regression test for the
// v1 → v2 encoding fix: Budgets: nil (which selects the
// BudgetMin/BudgetMax range and succeeds) and Budgets: []int{} (which
// Enumerate rejects) used to hash identically, so a cached or deduped
// sweep result could be served for a semantically different request.
// v2 encodes slice presence explicitly; the two must differ forever.
func TestSweepFingerprintNilVsEmptyBudgets(t *testing.T) {
	const src = "func f(a: num<8>) o: num<8> = begin o = a + 1; end"
	ranged := SweepSpec{Budgets: nil, BudgetMin: 5, BudgetMax: 9}
	empty := SweepSpec{Budgets: []int{}, BudgetMin: 5, BudgetMax: 9}

	// The two specs really are semantically different: one enumerates,
	// the other is rejected.
	d := MustCompile(src)
	if _, err := ranged.Enumerate(d); err != nil {
		t.Fatalf("ranged spec must enumerate: %v", err)
	}
	if _, err := empty.Enumerate(d); err == nil {
		t.Fatal("empty-Budgets spec must be rejected by Enumerate")
	}

	if fp1, fp2 := SweepFingerprint(src, ranged), SweepFingerprint(src, empty); fp1 == fp2 {
		t.Fatalf("nil and empty Budgets collide: %s", fp1)
	}
}

// TestFingerprintVersionIsV3 pins the version bump that accompanied the
// removal of the scheduler-backend field: any future layout change must
// bump again, never reuse v3, and never drift back to v1 or v2.
func TestFingerprintVersionIsV3(t *testing.T) {
	if fingerprintVersion != "pmsynth-fp/v3" {
		t.Fatalf("fingerprintVersion = %q, want pmsynth-fp/v3 (bump, don't reuse, on layout changes)", fingerprintVersion)
	}
}

// TestEmptyResourcesMatchesNil holds the fingerprint contract (equal
// fingerprints imply identical results) for the one map-valued option:
// fpResources hashes a nil and an empty Resources map alike, so the flow
// must treat an empty map as "minimize hardware" too, not as a
// fixed-hardware run with no units.
func TestEmptyResourcesMatchesNil(t *testing.T) {
	c := bench.GCD()
	nilOpt := Options{Budget: 7}
	emptyOpt := Options{Budget: 7, Resources: map[cdfg.Class]int{}}
	if Fingerprint(c.Source, nilOpt) != Fingerprint(c.Source, emptyOpt) {
		t.Fatal("nil and empty Resources fingerprint differently")
	}
	a, err := Synthesize(c.Design, nilOpt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(c.Design, emptyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Row() != b.Row() {
		t.Fatalf("equal fingerprints, different rows:\nnil:   %+v\nempty: %+v", a.Row(), b.Row())
	}

	nilSpec := SweepSpec{Budgets: []int{7}, Resources: []map[cdfg.Class]int{nil}}
	emptySpec := SweepSpec{Budgets: []int{7}, Resources: []map[cdfg.Class]int{{}}}
	if SweepFingerprint(c.Source, nilSpec) != SweepFingerprint(c.Source, emptySpec) {
		t.Fatal("nil and empty Resources entries sweep-fingerprint differently")
	}
	sa, err := Sweep(c.Design, nilSpec)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Sweep(c.Design, emptySpec)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Table() != sb.Table() {
		t.Fatalf("equal sweep fingerprints, different tables:\n%s\n%s", sa.Table(), sb.Table())
	}
}

// TestSweepFingerprintPresenceEncodingStable: the presence bit must not
// disturb the properties v1 already guaranteed — equal specs hash
// equally, and an explicit budget list is distinct from the equivalent
// range form (list vs range is semantic: it changes how the request is
// validated and extended).
func TestSweepFingerprintPresenceEncodingStable(t *testing.T) {
	const src = "func f(a: num<8>) o: num<8> = begin o = a + 1; end"
	a := SweepSpec{Budgets: []int{5, 6, 7}}
	b := SweepSpec{Budgets: []int{5, 6, 7}}
	if SweepFingerprint(src, a) != SweepFingerprint(src, b) {
		t.Fatal("identical specs hash differently")
	}
	r := SweepSpec{BudgetMin: 5, BudgetMax: 7}
	if SweepFingerprint(src, a) == SweepFingerprint(src, r) {
		t.Fatal("explicit budget list collides with the equivalent range")
	}
}
