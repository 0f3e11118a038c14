package silage

import (
	"fmt"
	"strconv"

	"repro/internal/cdfg"
)

// OutputPrefix prefixes CDFG output-node names so they never collide with
// user signal names (':' cannot appear in identifiers).
const OutputPrefix = "out:"

// PortName recovers the source-level port name from an output node name.
func PortName(nodeName string) string {
	if len(nodeName) >= len(OutputPrefix) && nodeName[:len(OutputPrefix)] == OutputPrefix {
		return nodeName[len(OutputPrefix):]
	}
	return nodeName
}

// Design is the elaboration result: the CDFG plus interface metadata the
// backend needs.
type Design struct {
	// Graph is the elaborated CDFG.
	Graph *cdfg.Graph
	// Func is the source declaration.
	Func *FuncDecl
	// Width is the datapath word width: the widest num type in the
	// interface (the paper uses a uniform 8-bit datapath).
	Width int
}

type binding struct {
	id  cdfg.NodeID
	typ Type
}

type elaborator struct {
	g      *cdfg.Graph
	env    map[string]binding
	consts map[int64]cdfg.NodeID
	tmp    int

	// funcs holds all declarations in the file for call inlining;
	// inlining is the active call stack (recursion detection) and
	// callCount makes inlined signal names unique per call site.
	funcs     map[string]*FuncDecl
	inlining  []string
	callCount int
}

// nodeName returns name, or when it is empty the temporary name _t<tmp>.
// expr numbers every subexpression it visits in pre-order but formats a
// temporary name only for a node it creates.
func nodeName(name string, tmp int) string {
	if name != "" {
		return name
	}
	return numbered("_t", int64(tmp))
}

// numbered returns prefix followed by v in decimal, in one allocation.
func numbered(prefix string, v int64) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), v, 10))
}

func (e *elaborator) constNode(v int64) (cdfg.NodeID, error) {
	if id, ok := e.consts[v]; ok {
		return id, nil
	}
	// ':' cannot appear in identifiers, so constant names never collide
	// with user signals.
	name := numbered("c:", v)
	id, err := e.g.AddConst(name, v)
	if err != nil {
		return cdfg.InvalidNode, err
	}
	e.consts[v] = id
	return id, nil
}

var binKinds = map[string]cdfg.Kind{
	"+": cdfg.KindAdd, "-": cdfg.KindSub, "*": cdfg.KindMul,
	"<": cdfg.KindLt, ">": cdfg.KindGt, "<=": cdfg.KindLe,
	">=": cdfg.KindGe, "==": cdfg.KindEq, "!=": cdfg.KindNe,
	"&": cdfg.KindAnd, "|": cdfg.KindOr,
}

// expr elaborates an expression. name, when non-empty, is used for the node
// created for the expression root (the assignment target).
func (e *elaborator) expr(x Expr, name string) (cdfg.NodeID, Type, error) {
	numT := Type{Width: DefaultWidth}
	boolT := Type{Bool: true}
	tmp := 0
	if name == "" {
		e.tmp++
		tmp = e.tmp
	}
	switch v := x.(type) {
	case *Ident:
		b, ok := e.env[v.Name]
		if !ok {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "undefined signal %q", v.Name)
		}
		return b.id, b.typ, nil
	case *IntLit:
		id, err := e.constNode(v.Value)
		return id, numT, err
	case *Unary:
		xid, xt, err := e.expr(v.X, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		switch v.Op {
		case "-":
			if xt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "cannot negate a bool")
			}
			zero, err := e.constNode(0)
			if err != nil {
				return cdfg.InvalidNode, Type{}, err
			}
			id, err := e.g.AddOp(cdfg.KindSub, nodeName(name, tmp), zero, xid)
			return id, numT, err
		case "!":
			if !xt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator ! needs a bool operand")
			}
			id, err := e.g.AddOp(cdfg.KindNot, nodeName(name, tmp), xid)
			return id, boolT, err
		default:
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "unknown unary operator %q", v.Op)
		}
	case *Binary:
		xid, xt, err := e.expr(v.X, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		yid, yt, err := e.expr(v.Y, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		kind, ok := binKinds[v.Op]
		if !ok {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "unknown operator %q", v.Op)
		}
		switch {
		case kind == cdfg.KindAnd || kind == cdfg.KindOr:
			if !xt.Bool || !yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator %q needs bool operands", v.Op)
			}
			id, err := e.g.AddOp(kind, nodeName(name, tmp), xid, yid)
			return id, boolT, err
		case kind.IsComparison():
			if xt.Bool || yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "comparison %q needs num operands", v.Op)
			}
			id, err := e.g.AddOp(kind, nodeName(name, tmp), xid, yid)
			return id, boolT, err
		default: // arithmetic
			if xt.Bool || yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator %q needs num operands", v.Op)
			}
			id, err := e.g.AddOp(kind, nodeName(name, tmp), xid, yid)
			return id, numT, err
		}
	case *ShiftLit:
		xid, xt, err := e.expr(v.X, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		if xt.Bool {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "cannot shift a bool")
		}
		kind := cdfg.KindShr
		if v.Op == "<<" {
			kind = cdfg.KindShl
		}
		id, err := e.g.AddShift(kind, nodeName(name, tmp), xid, v.By)
		return id, numT, err
	case *If:
		cid, ct, err := e.expr(v.Cond, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		if !ct.Bool {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "if condition must be bool")
		}
		tid, tt, err := e.expr(v.Then, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		fid, ft, err := e.expr(v.Else, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		if tt.Bool != ft.Bool {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "if branches have mismatched types (%s vs %s)", tt, ft)
		}
		id, err := e.g.AddMux(nodeName(name, tmp), cid, tid, fid)
		return id, tt, err
	case *Call:
		return e.inlineCall(v)
	default:
		return cdfg.InvalidNode, Type{}, errf(x.ExprPos(), "unsupported expression")
	}
}

// inlineCall elaborates a helper-function application by inlining its body
// with call-site-unique signal names ('$' cannot appear in identifiers, so
// inlined names never collide with user signals).
func (e *elaborator) inlineCall(v *Call) (cdfg.NodeID, Type, error) {
	callee, ok := e.funcs[v.Name]
	if !ok {
		return cdfg.InvalidNode, Type{}, errf(v.Pos, "undefined function %q", v.Name)
	}
	if len(callee.Results) != 1 {
		return cdfg.InvalidNode, Type{}, errf(v.Pos,
			"function %q has %d results; only single-result functions are callable",
			v.Name, len(callee.Results))
	}
	if len(v.Args) != len(callee.Params) {
		return cdfg.InvalidNode, Type{}, errf(v.Pos, "function %q wants %d arguments, got %d",
			v.Name, len(callee.Params), len(v.Args))
	}
	for _, active := range e.inlining {
		if active == v.Name {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "recursive call to %q", v.Name)
		}
	}
	// Evaluate arguments in the caller's environment.
	callEnv := make(map[string]binding, len(callee.Params))
	for i, arg := range v.Args {
		id, typ, err := e.expr(arg, "")
		if err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
		p := callee.Params[i]
		if typ.Bool != p.Type.Bool {
			return cdfg.InvalidNode, Type{}, errf(arg.ExprPos(),
				"argument %d of %q: have %s, want %s", i+1, v.Name, typ, p.Type)
		}
		callEnv[p.Name] = binding{id: id, typ: p.Type}
	}
	// Elaborate the body in the callee's own scope.
	e.callCount++
	prefix := fmt.Sprintf("%s$%d$", v.Name, e.callCount)
	saved := e.env
	e.env = callEnv
	e.inlining = append(e.inlining, v.Name)
	defer func() {
		e.env = saved
		e.inlining = e.inlining[:len(e.inlining)-1]
	}()
	for _, a := range callee.Body {
		if err := e.assign(a, prefix); err != nil {
			return cdfg.InvalidNode, Type{}, err
		}
	}
	res := callee.Results[0]
	b, ok := e.env[res.Name]
	if !ok {
		return cdfg.InvalidNode, Type{}, errf(res.Pos, "result %q of %q is never assigned", res.Name, v.Name)
	}
	if b.typ.Bool != res.Type.Bool {
		return cdfg.InvalidNode, Type{}, errf(res.Pos, "result %q of %q declared %s but assigned %s",
			res.Name, v.Name, res.Type, b.typ)
	}
	return b.id, b.typ, nil
}

// assign elaborates one assignment into the current environment. prefix
// uniquifies node names for inlined bodies ("" at top level).
func (e *elaborator) assign(a *Assign, prefix string) error {
	if _, dup := e.env[a.Name]; dup {
		return errf(a.Pos, "signal %q assigned more than once", a.Name)
	}
	// Aliases (x = y; or x = 5;) bind without creating a node.
	switch v := a.Expr.(type) {
	case *Ident:
		b, ok := e.env[v.Name]
		if !ok {
			return errf(v.Pos, "undefined signal %q", v.Name)
		}
		e.env[a.Name] = b
		return nil
	case *IntLit:
		id, err := e.constNode(v.Value)
		if err != nil {
			return err
		}
		e.env[a.Name] = binding{id: id, typ: Type{Width: DefaultWidth}}
		return nil
	}
	id, typ, err := e.expr(a.Expr, prefix+a.Name)
	if err != nil {
		return err
	}
	e.env[a.Name] = binding{id: id, typ: typ}
	return nil
}

// ElaborateProgram elaborates the last declaration of a multi-function
// file; earlier declarations are callable helpers that inline at their
// call sites.
func ElaborateProgram(funcs []*FuncDecl) (*Design, error) {
	if len(funcs) == 0 {
		return nil, errf(Pos{Line: 1, Col: 1}, "no functions to elaborate")
	}
	top := funcs[len(funcs)-1]
	e := &elaborator{
		g:      cdfg.New(top.Name),
		env:    make(map[string]binding),
		consts: make(map[int64]cdfg.NodeID),
		funcs:  make(map[string]*FuncDecl, len(funcs)),
	}
	for _, f := range funcs {
		e.funcs[f.Name] = f
	}
	width := 0
	for _, p := range top.Params {
		if _, dup := e.env[p.Name]; dup {
			return nil, errf(p.Pos, "duplicate parameter %q", p.Name)
		}
		id, err := e.g.AddInput(p.Name)
		if err != nil {
			return nil, errf(p.Pos, "%v", err)
		}
		e.env[p.Name] = binding{id: id, typ: p.Type}
		if !p.Type.Bool && p.Type.Width > width {
			width = p.Type.Width
		}
	}
	for _, r := range top.Results {
		if !r.Type.Bool && r.Type.Width > width {
			width = r.Type.Width
		}
	}
	if width == 0 {
		width = DefaultWidth
	}
	e.inlining = append(e.inlining, top.Name)
	for _, a := range top.Body {
		if err := e.assign(a, ""); err != nil {
			return nil, err
		}
	}
	for _, r := range top.Results {
		b, ok := e.env[r.Name]
		if !ok {
			return nil, errf(r.Pos, "result %q is never assigned", r.Name)
		}
		if b.typ.Bool != r.Type.Bool {
			return nil, errf(r.Pos, "result %q declared %s but assigned %s", r.Name, r.Type, b.typ)
		}
		if _, err := e.g.AddOutput(OutputPrefix+r.Name, b.id); err != nil {
			return nil, errf(r.Pos, "%v", err)
		}
	}
	if err := e.g.Validate(); err != nil {
		return nil, err
	}
	return &Design{Graph: e.g, Func: top, Width: width}, nil
}

// Compile parses and elaborates src in one step. Multi-function files are
// supported: helpers first, the top-level design last.
func Compile(src string) (*Design, error) {
	funcs, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return ElaborateProgram(funcs)
}

// MustCompile compiles src and panics on error; for built-in sources.
func MustCompile(src string) *Design {
	d, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("silage.MustCompile: %v", err))
	}
	return d
}
