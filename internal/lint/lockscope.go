package lint

// The lockscope check: the admission-pipeline invariant, statically. In
// the serving-layer packages no call that can reach compile/enumerate/
// synthesis entry points, disk I/O or a log write (the ForbiddenUnderLock
// patterns), and no dynamic call through a function value
// (client-controlled work: hooks, callbacks, job funcs), may execute
// while a sync.Mutex or sync.RWMutex is held.
//
// The approximation, documented because every static lock checker is
// one:
//
//   - Lock regions are tracked through a forward scan of each function
//     body with branch-aware held-sets: both arms of an if/switch are
//     scanned with a copy of the held-set and the fall-through states
//     union (possibly-held counts as held). `defer mu.Unlock()` holds to
//     the end of the function.
//   - Reachability of forbidden calls propagates through the
//     intra-package static call graph to a fixed point. Methods whose
//     name ends in "Locked" are scanned as if a lock were held — the
//     repo's convention for helpers that run inside a critical section.
//   - Function literals are separate analysis units: defining a closure
//     under a lock is fine (the admission pipeline does exactly that),
//     only running one is checked. Immediately-invoked literals are
//     scanned inline; literals called later through a variable are the
//     dynamic-call case at their call site.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func checkLockScope(pkg *Package, cfg Config, report func(check string, pos token.Pos, format string, args ...interface{})) {
	ls := &lockScope{pkg: pkg, cfg: cfg, report: report}
	ls.buildSummaries()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := heldSet{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				held["(caller's lock)"] = true
			}
			ls.scanStmts(fd.Body.List, held)
			// Literals not immediately invoked: their bodies are their own
			// lock scopes, starting unlocked.
			ls.scanNestedLits(fd.Body)
		}
	}
}

// heldSet maps a lock's receiver expression ("s.mu", "m.qmu") to held.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldSet) union(o heldSet) heldSet {
	for k := range o {
		h[k] = true
	}
	return h
}

func (h heldSet) any() bool { return len(h) > 0 }

func (h heldSet) names() string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	// Deterministic message regardless of map order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return strings.Join(out, ", ")
}

type lockScope struct {
	pkg    *Package
	cfg    Config
	report func(check string, pos token.Pos, format string, args ...interface{})

	// reaches marks package functions that can reach a forbidden call
	// through the intra-package static call graph; via records the first
	// step of one such path for the diagnostic.
	reaches map[*types.Func]bool
	via     map[*types.Func]string
	decls   map[*types.Func]*ast.FuncDecl
}

// forbidden matches a static callee against the configured patterns.
func (ls *lockScope) forbidden(fn *types.Func) bool {
	key := funcKey(fn)
	if key == "" {
		return false
	}
	for _, pat := range ls.cfg.ForbiddenUnderLock {
		if key == pat {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, ".*"); ok {
			if rest, ok := strings.CutPrefix(key, prefix+"."); ok && !strings.Contains(rest, "/") {
				return true
			}
		}
	}
	return false
}

// buildSummaries computes the forbidden-reachability fixed point over
// the package's function declarations.
func (ls *lockScope) buildSummaries() {
	ls.reaches = make(map[*types.Func]bool)
	ls.via = make(map[*types.Func]string)
	ls.decls = make(map[*types.Func]*ast.FuncDecl)
	calls := make(map[*types.Func][]*types.Func)
	for _, file := range ls.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := ls.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ls.decls[fn] = fd
			walkSkippingFuncLits(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				c := resolveCall(ls.pkg, call)
				if c.fn == nil {
					return true
				}
				if ls.forbidden(c.fn) {
					if !ls.reaches[fn] {
						ls.reaches[fn] = true
						ls.via[fn] = funcKey(c.fn)
					}
					return true
				}
				if c.fn.Pkg() == ls.pkg.Types {
					calls[fn] = append(calls[fn], c.fn)
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if ls.reaches[fn] {
				continue
			}
			for _, callee := range callees {
				if ls.reaches[callee] {
					ls.reaches[fn] = true
					ls.via[fn] = funcKey(callee) + " -> " + ls.via[callee]
					changed = true
					break
				}
			}
		}
	}
}

// scanNestedLits scans every function literal in n as its own unlocked
// scope (and, recursively, literals nested inside those).
func (ls *lockScope) scanNestedLits(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && m != n {
			ls.scanStmts(lit.Body.List, heldSet{})
			ls.scanNestedLits(lit.Body)
			return false
		}
		return true
	})
}

// scanStmts walks a statement list with the current held-set, returning
// the fall-through held-set and whether the list always terminates
// (returns/panics) before falling through.
func (ls *lockScope) scanStmts(stmts []ast.Stmt, held heldSet) (heldSet, bool) {
	for _, s := range stmts {
		var terminated bool
		held, terminated = ls.scanStmt(s, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

// scanStmt processes one statement.
func (ls *lockScope) scanStmt(s ast.Stmt, held heldSet) (heldSet, bool) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		return ls.scanStmts(v.List, held)
	case *ast.IfStmt:
		if v.Init != nil {
			held, _ = ls.scanStmt(v.Init, held)
		}
		ls.checkExpr(v.Cond, held)
		thenOut, thenTerm := ls.scanStmts(v.Body.List, held.clone())
		elseOut, elseTerm := held.clone(), false
		if v.Else != nil {
			elseOut, elseTerm = ls.scanStmt(v.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return thenOut.union(elseOut), false
		}
	case *ast.ForStmt:
		if v.Init != nil {
			held, _ = ls.scanStmt(v.Init, held)
		}
		if v.Cond != nil {
			ls.checkExpr(v.Cond, held)
		}
		bodyOut, _ := ls.scanStmts(v.Body.List, held.clone())
		if v.Post != nil {
			ls.scanStmt(v.Post, bodyOut.clone())
		}
		return held.union(bodyOut), false
	case *ast.RangeStmt:
		ls.checkExpr(v.X, held)
		bodyOut, _ := ls.scanStmts(v.Body.List, held.clone())
		return held.union(bodyOut), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return ls.scanBranches(s, held)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			ls.checkExpr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto: treat as terminating this straight-line
		// scan; the conservative union at the loop/switch level covers
		// the merged state.
		return held, true
	case *ast.DeferStmt:
		if ls.isUnlock(v.Call) {
			// defer mu.Unlock(): the lock stays held to function end —
			// leave it in the set so later calls are still checked.
			return held, false
		}
		ls.checkExpr(v.Call, held)
		return held, false
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's lock.
		return held, false
	case *ast.ExprStmt:
		return ls.mutate(v.X, held), false
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			held = ls.mutate(e, held)
		}
		for _, e := range v.Lhs {
			ls.checkExpr(e, held)
		}
		return held, false
	case *ast.LabeledStmt:
		return ls.scanStmt(v.Stmt, held)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				ls.checkExpr(e, held)
				return false
			}
			return true
		})
		return held, false
	}
	return held, false
}

// scanBranches handles switch/type-switch/select: each case scans with a
// cloned held-set; the fall-through state is the union of every
// non-terminating case (plus the entry state — a switch may match no
// case).
func (ls *lockScope) scanBranches(s ast.Stmt, held heldSet) (heldSet, bool) {
	var bodies [][]ast.Stmt
	switch v := s.(type) {
	case *ast.SwitchStmt:
		if v.Init != nil {
			held, _ = ls.scanStmt(v.Init, held)
		}
		if v.Tag != nil {
			ls.checkExpr(v.Tag, held)
		}
		for _, c := range v.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			held, _ = ls.scanStmt(v.Init, held)
		}
		for _, c := range v.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			bodies = append(bodies, c.(*ast.CommClause).Body)
		}
	}
	out := held.clone()
	for _, body := range bodies {
		caseOut, caseTerm := ls.scanStmts(body, held.clone())
		if !caseTerm {
			out = out.union(caseOut)
		}
	}
	return out, false
}

// mutate processes an expression that may lock or unlock, updating the
// held-set, and otherwise checks its calls.
func (ls *lockScope) mutate(e ast.Expr, held heldSet) heldSet {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if name, lockExpr, ok := ls.lockOp(call); ok {
			switch name {
			case "Lock", "RLock":
				held[lockExpr] = true
			case "Unlock", "RUnlock":
				delete(held, lockExpr)
			}
			return held
		}
	}
	ls.checkExpr(e, held)
	return held
}

// lockOp recognizes mu.Lock/Unlock/RLock/RUnlock calls on sync.Mutex and
// sync.RWMutex values (including embedded ones), returning the method
// name and the receiver expression's source form.
func (ls *lockScope) lockOp(call *ast.CallExpr) (name, lockExpr string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := ls.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name(), types.ExprString(sel.X), true
	}
	return "", "", false
}

// isUnlock reports whether call is an Unlock/RUnlock.
func (ls *lockScope) isUnlock(call *ast.CallExpr) bool {
	name, _, ok := ls.lockOp(call)
	return ok && (name == "Unlock" || name == "RUnlock")
}

// checkExpr reports forbidden or dynamic calls inside e, given the
// current held-set. Nested function literals are skipped — unless
// immediately invoked, in which case the literal body is scanned inline
// with the current held-set.
func (ls *lockScope) checkExpr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	if _, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		// Assigning or passing a literal defines a closure without running
		// it; scanNestedLits analyzes the body as its own scope.
		return
	}
	walkSkippingFuncLits(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			ls.scanStmts(lit.Body.List, held.clone())
			return false
		}
		if _, _, isLockOp := ls.lockOp(call); isLockOp {
			return true // handled by mutate where it matters
		}
		if !held.any() {
			return true
		}
		c := resolveCall(ls.pkg, call)
		switch {
		case c.fn != nil && ls.forbidden(c.fn):
			ls.report(CheckLockScope, call.Pos(),
				"%s called while holding %s; no client-controlled work under a mutex", funcKey(c.fn), held.names())
		case c.fn != nil && ls.reaches[c.fn]:
			ls.report(CheckLockScope, call.Pos(),
				"%s can reach %s while holding %s; no client-controlled work under a mutex",
				c.fn.Name(), ls.via[c.fn], held.names())
		case c.dynamic:
			ls.report(CheckLockScope, call.Pos(),
				"dynamic call through %s while holding %s; function values are client-controlled work under a mutex",
				types.ExprString(call.Fun), held.names())
		}
		return true
	})
}
