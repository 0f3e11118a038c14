package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The check names, in the order they run.
const (
	CheckDeterminism = "determinism"
	CheckLockScope   = "lockscope"
	CheckSpanPair    = "spanpair"
	CheckDirectives  = "directives"
)

// AllChecks lists every check name in execution order. The directives
// check is last by construction: it validates the escape hatches after
// the other checks have consumed them.
func AllChecks() []string {
	return []string{CheckDeterminism, CheckLockScope, CheckSpanPair, CheckDirectives}
}

// KnownCheck reports whether name is one of the checks.
func KnownCheck(name string) bool {
	for _, c := range AllChecks() {
		if c == name {
			return true
		}
	}
	return false
}

// Finding is one diagnostic. File is relative to the module root when
// the runner knows it, so output is stable across checkouts.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: [check] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Config parameterizes the checks. The zero value runs nothing useful;
// start from DefaultConfig.
type Config struct {
	// Checks selects which checks run; empty means all. Names must come
	// from AllChecks.
	Checks []string
	// DeterministicPackages are the import paths held to the determinism
	// contract: no escaping unsorted map iteration, no time.Now, no
	// global math/rand. Every listed path must exist in the loaded
	// module — a rename that rots this list is itself an error.
	DeterministicPackages []string
	// LockScopePackages are the import paths held to the lock-scope
	// contract: nothing matching ForbiddenUnderLock — and no dynamic
	// (client-controlled) call — may run while a sync.Mutex or RWMutex
	// is held.
	LockScopePackages []string
	// ForbiddenUnderLock names what must not be reachable under a held
	// mutex: "pkg.*" (any function or method of the package),
	// "pkg.Func", or "pkg.Type.Method".
	ForbiddenUnderLock []string
	// TelemetryPackage is the import path whose StartSpan/End pairs the
	// spanpair check enforces.
	TelemetryPackage string
}

// DefaultConfig is the repository's contract: the deterministic-path
// packages of the synthesis core, the serving-layer lock-scope packages,
// and the telemetry span API, all under module path modPath.
func DefaultConfig(modPath string) Config {
	det := []string{modPath} // the root pmsynth package
	for _, p := range []string{
		"cdfg", "sched", "alloc", "ctrl", "power", "sim", "core",
		"hdl", "vhdl", "verilog", "chip", "rtl", "tables", "flow",
		"optimal", "silage", "bench",
	} {
		det = append(det, modPath+"/internal/"+p)
	}
	return Config{
		DeterministicPackages: det,
		LockScopePackages: []string{
			modPath + "/internal/server",
			modPath + "/internal/jobs",
		},
		ForbiddenUnderLock: []string{
			modPath + ".*",                           // Compile, Synthesize, Sweep*, Enumerate, ...
			modPath + "/internal/flow.*",             // pipeline entry points
			modPath + "/internal/cache.Store.Get",    // disk I/O
			modPath + "/internal/cache.Store.GetCtx", //
			modPath + "/internal/cache.Store.Put",    //
			modPath + "/internal/cache.Store.PutCtx", //
		},
		TelemetryPackage: modPath + "/internal/telemetry",
	}
}

// checks validates and resolves the configured check selection.
func (c Config) checks() ([]string, error) {
	if len(c.Checks) == 0 {
		return AllChecks(), nil
	}
	seen := make(map[string]bool, len(c.Checks))
	for _, name := range c.Checks {
		if !KnownCheck(name) {
			return nil, fmt.Errorf("lint: unknown check %q (known: %s)",
				name, strings.Join(AllChecks(), ", "))
		}
		seen[name] = true
	}
	// Preserve canonical order regardless of how the selection was typed.
	var out []string
	for _, name := range AllChecks() {
		if seen[name] {
			out = append(out, name)
		}
	}
	return out, nil
}

// Runner lints loaded packages. Checks report through report(), findings
// are filtered through //pmlint:allow directives per package, and the
// final list is sorted by position.
type Runner struct {
	Loader *Loader
	Config Config
	// Root, when set, relativizes finding file paths against it.
	Root string
}

// SelfCheck verifies the configured package lists against the loaded
// module: a configured path that no longer exists means the config
// rotted (a package was renamed or moved) and is a hard error, not a
// silently narrower lint.
func (r *Runner) SelfCheck(modulePaths []string) error {
	known := make(map[string]bool, len(modulePaths))
	for _, p := range modulePaths {
		known[p] = true
	}
	var missing []string
	for _, p := range r.Config.DeterministicPackages {
		if !known[p] {
			missing = append(missing, p)
		}
	}
	for _, p := range r.Config.LockScopePackages {
		if !known[p] {
			missing = append(missing, p)
		}
	}
	if r.Config.TelemetryPackage != "" && !known[r.Config.TelemetryPackage] {
		missing = append(missing, r.Config.TelemetryPackage)
	}
	if len(missing) > 0 {
		return fmt.Errorf("lint: configured packages missing from the module (config rot): %s",
			strings.Join(missing, ", "))
	}
	return nil
}

// Lint loads and checks the given packages, returning the surviving
// findings sorted by file, line, column and check.
func (r *Runner) Lint(paths ...string) ([]Finding, error) {
	checks, err := r.Config.checks()
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, path := range paths {
		pkg, err := r.Loader.Load(path)
		if err != nil {
			return nil, err
		}
		all = append(all, r.lintPackage(pkg, checks)...)
	}
	sort.Slice(all, func(i, k int) bool {
		a, b := all[i], all[k]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	// Dedupe: a construct scanned from two angles (an immediately-invoked
	// literal, say) must not report twice.
	out := all[:0]
	for i, f := range all {
		if i == 0 || f != all[i-1] {
			out = append(out, f)
		}
	}
	return out, nil
}

// lintPackage runs the selected checks over one package and applies its
// //pmlint:allow directives.
func (r *Runner) lintPackage(pkg *Package, checks []string) []Finding {
	mk := func(check string, pos token.Pos, msg string) Finding {
		p := pkg.Fset.Position(pos)
		file := p.Filename
		if r.Root != "" {
			if rel, ok := strings.CutPrefix(file, r.Root+"/"); ok {
				file = rel
			}
		}
		return Finding{Check: check, File: file, Line: p.Line, Col: p.Column, Message: msg}
	}
	var raw []Finding
	report := func(check string, pos token.Pos, format string, args ...interface{}) {
		raw = append(raw, mk(check, pos, fmt.Sprintf(format, args...)))
	}
	runDirectives := false
	for _, check := range checks {
		switch check {
		case CheckDeterminism:
			if containsPath(r.Config.DeterministicPackages, pkg.Path) {
				checkDeterminism(pkg, report)
			}
		case CheckLockScope:
			if containsPath(r.Config.LockScopePackages, pkg.Path) {
				checkLockScope(pkg, r.Config, report)
			}
		case CheckSpanPair:
			if pkg.Path != r.Config.TelemetryPackage {
				checkSpanPair(pkg, r.Config, report)
			}
		case CheckDirectives:
			runDirectives = true
		}
	}
	return applyDirectives(pkg, raw, mk, runDirectives)
}

// containsPath reports whether list contains path.
func containsPath(list []string, path string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}

// funcBody pairs a function-ish node with its body for per-function
// walks: top-level declarations and every function literal, each
// analyzed independently.
type funcBody struct {
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
}

// functionsOf lists every function declaration and literal in the file.
func functionsOf(file *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{fn, fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{fn, fn.Body})
		}
		return true
	})
	return out
}
