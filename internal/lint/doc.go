// Package lint is the repository's project-specific static analysis
// engine, built exclusively on the standard library (go/ast, go/parser,
// go/types with the source importer — the module stays dependency-free).
// It loads every package in the module and enforces the invariants the
// rest of the toolchain only checks dynamically:
//
//   - determinism: the synthesis-core packages must not let map
//     iteration order escape unsorted, and must not touch time.Now or
//     the global math/rand source — the byte-identical-sweep and
//     fingerprint-stability contracts, per commit instead of per seed.
//   - lockscope: the serving-layer packages must not run
//     compile/enumerate/synthesis entry points, disk I/O, a log write or
//     any dynamic (client-controlled) call while a sync mutex is held — the
//     admission-pipeline invariant, statically.
//   - spanpair: telemetry.StartSpan needs a matching End on every path,
//     context.Context parameters come first, and contexts do not live in
//     struct fields.
//   - directives: the //pmlint:allow escape hatch requires a reason, and
//     an allow that suppresses nothing is itself an error.
//
// Command pmlint is the CLI; CI runs `pmlint ./...` as a gate next to
// gofmt and vet.
package lint
