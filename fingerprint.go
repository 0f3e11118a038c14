package pmsynth

// Content-addressed request identity. A fingerprint is a stable SHA-256
// over a canonical serialization of everything that determines a synthesis
// result: the Silage source text plus the Options (or SweepSpec) under
// which it is run. Two requests with equal fingerprints are guaranteed to
// produce identical results, which is what lets the pmsynthd serving layer
// (internal/cache, internal/server) deduplicate and cache work across
// clients without re-running the flow.
//
// Canonicalization rules:
//   - every field is written with a fixed tag byte followed by a
//     fixed-width encoding, so no two field sequences can collide;
//   - map-valued fields (resource budgets) are written in sorted key
//     order, so semantically equal maps hash equally;
//   - list-valued sweep axes are written in declaration order, because
//     axis order is semantic — it fixes the enumeration order and hence
//     Best's deterministic tie-breaking;
//   - SweepSpec.Budgets additionally encodes *presence* (nil vs non-nil),
//     because presence is semantic for that one field: a nil slice
//     selects the BudgetMin/BudgetMax range while a non-nil empty slice
//     is rejected by Enumerate, so the two must never hash alike (v2);
//   - SweepSpec.Workers is excluded: the worker count never affects
//     results, only wall-clock time.
//
// The encoding is versioned; any future change to Options, SweepSpec or
// the rules above must bump fingerprintVersion so stale cache entries can
// never be served for a semantically different request. v3 dropped the
// scheduler-backend selector (Options.ForceDirected and the
// SweepSpec.ForceDirected axis) together with the force-directed backend,
// so every key changed and no v2 entry can be read again.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"sort"

	"repro/internal/cdfg"
)

// fingerprintVersion tags the canonical encoding; bump on any change.
// v2: SweepSpec.Budgets encodes slice presence, splitting nil (range
// selector) from non-nil empty (rejected by Enumerate) — under v1 the two
// hashed identically and a cached result for one could answer the other.
// v3: no scheduler-backend field (see the header).
const fingerprintVersion = "pmsynth-fp/v3"

// Fingerprint returns the content-addressed identity of one synthesis
// request: a stable hex SHA-256 of the source text and options. Equal
// fingerprints imply identical Synthesize results.
func Fingerprint(source string, opt Options) string {
	h := sha256.New()
	fpString(h, fingerprintVersion)
	fpString(h, "synthesize")
	fpString(h, source)
	fpOptions(h, opt)
	return hex.EncodeToString(h.Sum(nil))
}

// SweepFingerprint returns the content-addressed identity of one sweep
// request. Equal fingerprints imply identical SweepResult tables (the
// Workers field is excluded: it never affects results).
func SweepFingerprint(source string, spec SweepSpec) string {
	h := sha256.New()
	fpString(h, fingerprintVersion)
	fpString(h, "sweep")
	fpString(h, source)
	// Presence of Budgets is semantic, not just its contents: nil selects
	// the BudgetMin/BudgetMax range, a non-nil empty slice is an error.
	fpBool(h, spec.Budgets != nil)
	fpInts(h, 'B', spec.Budgets)
	fpInt(h, 'l', spec.BudgetMin)
	fpInt(h, 'h', spec.BudgetMax)
	fpInts(h, 'I', spec.IIs)
	orders := make([]int, len(spec.Orders))
	for i, o := range spec.Orders {
		orders[i] = int(o)
	}
	fpInts(h, 'O', orders)
	fpInt(h, 'R', len(spec.Resources))
	for _, res := range spec.Resources {
		fpResources(h, res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fpOptions writes the canonical form of one Options value.
func fpOptions(h hash.Hash, opt Options) {
	fpInt(h, 'b', opt.Budget)
	fpInt(h, 'i', opt.II)
	fpInt(h, 'o', int(opt.Order))
	fpResources(h, opt.Resources)
}

// fpResources writes a resource budget map in sorted key order; nil and
// empty maps hash identically (both mean "minimize hardware").
func fpResources(h hash.Hash, res map[cdfg.Class]int) {
	fpInt(h, 'r', len(res))
	keys := make([]int, 0, len(res))
	for c := range res {
		keys = append(keys, int(c))
	}
	sort.Ints(keys)
	for _, c := range keys {
		fpInt(h, 'k', c)
		fpInt(h, 'v', res[cdfg.Class(c)])
	}
}

func fpString(h hash.Hash, s string) {
	fpInt(h, 's', len(s))
	io.WriteString(h, s)
}

func fpInts(h hash.Hash, tag byte, vs []int) {
	fpInt(h, tag, len(vs))
	for _, v := range vs {
		fpInt(h, 'e', v)
	}
}

func fpInt(h hash.Hash, tag byte, v int) {
	var buf [9]byte
	buf[0] = tag
	binary.BigEndian.PutUint64(buf[1:], uint64(int64(v)))
	h.Write(buf[:])
}

func fpBool(h hash.Hash, v bool) {
	if v {
		fpInt(h, 't', 1)
	} else {
		fpInt(h, 't', 0)
	}
}
