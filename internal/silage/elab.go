package silage

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cdfg"
	"repro/internal/scratch"
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
	// Width is the datapath word width: the widest num type in the
	// interface (the paper uses a uniform 8-bit datapath).
	Width int
}

type binding struct {
	id  cdfg.NodeID
	typ Type
}

// compileState is the working memory of one Compile: the parse memory the
// AST is built in and the elaborator's tables. It waits in compiles
// between calls, so a compile allocates only what its Design keeps: the
// graph, with its nodes and argument lists in blocks sized from the parse,
// and one block holding the names the elaborator makes.
type compileState struct {
	mem   parseMem
	decls []*FuncDecl
	elaborator
}

// compiles holds the idle compileState values.
var compiles scratch.List[compileState]

// reset readies s for the next compile, keeping its memory and pinning
// nothing of this one: the graph and the names block stay with the
// Design.
func (s *compileState) reset() {
	s.mem.reset()
	s.decls = clearStack(s.decls)
	e := &s.elaborator
	e.g = nil
	e.names = strings.Builder{}
	clear(e.env)
	clear(e.consts)
	clear(e.taken)
	clear(e.funcs)
	e.inlining = clearStack(e.inlining)
	e.tmp, e.callCount = 0, 0
}

type elaborator struct {
	g *cdfg.Graph
	// names holds the text of every node name the elaborator makes
	// (temporaries, constants, outputs, inlined signals); a Builder never
	// moves or rewrites the bytes of a string it has returned. User
	// signal names are substrings of the source.
	names  strings.Builder
	env    map[string]binding
	consts map[int64]cdfg.NodeID
	tmp    int
	// taken holds the design's parameters and node-creating assignments
	// spelled "_t..." (see nodeName).
	taken map[string]bool

	// funcs holds all declarations in the file for call inlining;
	// inlining is the active call stack (recursion detection) and
	// callCount makes inlined signal names unique per call site.
	funcs     map[string]*FuncDecl
	inlining  []string
	callCount int
}

// intern copies b into the names block and returns it as a string.
func (e *elaborator) intern(b []byte) string {
	start := e.names.Len()
	e.names.Write(b)
	return e.names.String()[start:]
}

// join returns a+b from the names block.
func (e *elaborator) join(a, b string) string {
	start := e.names.Len()
	e.names.WriteString(a)
	e.names.WriteString(b)
	return e.names.String()[start:]
}

// numbered returns prefix followed by v in decimal, from the names block.
func (e *elaborator) numbered(prefix string, v int64) string {
	var buf [32]byte
	return e.intern(strconv.AppendInt(append(buf[:0], prefix...), v, 10))
}

// nodeName returns name, or when it is empty the name of temporary tmp:
// _t<tmp>. expr numbers every subexpression it visits in pre-order but
// makes a temporary name only for a node it creates. Identifiers may
// start with '_', so when the design itself declares a parameter or a
// node-creating signal _t<tmp>, the temporary is $t<tmp> instead: '$'
// cannot appear in identifiers. No design that compiled without the
// rename sees a node renamed.
func (e *elaborator) nodeName(name string, tmp int) string {
	if name != "" {
		return name
	}
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], "_t"...), int64(tmp), 10)
	if e.taken[string(b)] {
		b[0] = '$'
	}
	return e.intern(b)
}

// reserve records a design signal spelled like a temporary.
func (e *elaborator) reserve(name string) {
	if strings.HasPrefix(name, "_t") {
		e.taken[name] = true
	}
}

func (e *elaborator) constNode(v int64) (cdfg.NodeID, error) {
	if id, ok := e.consts[v]; ok {
		return id, nil
	}
	// ':' cannot appear in identifiers, so constant names never collide
	// with user signals.
	id, err := e.g.AddConst(e.numbered("c:", v), v)
	if err != nil {
		return cdfg.InvalidNode, err
	}
	e.consts[v] = id
	return id, nil
}

// binKinds maps each binary operator to its node kind. Every other code
// maps to KindInput, which no operator makes.
var binKinds = [numOps]cdfg.Kind{
	OpAdd: cdfg.KindAdd, OpSub: cdfg.KindSub, OpMul: cdfg.KindMul,
	OpLt: cdfg.KindLt, OpGt: cdfg.KindGt, OpLe: cdfg.KindLe,
	OpGe: cdfg.KindGe, OpEq: cdfg.KindEq, OpNe: cdfg.KindNe,
	OpAnd: cdfg.KindAnd, OpOr: cdfg.KindOr,
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
		case OpSub:
			if xt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "cannot negate a bool")
			}
			zero, err := e.constNode(0)
			if err != nil {
				return cdfg.InvalidNode, Type{}, err
			}
			id, err := e.g.AddOp(cdfg.KindSub, e.nodeName(name, tmp), zero, xid)
			return id, numT, err
		case OpNot:
			if !xt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator ! needs a bool operand")
			}
			id, err := e.g.AddOp(cdfg.KindNot, e.nodeName(name, tmp), xid)
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
		kind := cdfg.KindInput
		if v.Op < numOps {
			kind = binKinds[v.Op]
		}
		if kind == cdfg.KindInput {
			return cdfg.InvalidNode, Type{}, errf(v.Pos, "unknown operator %q", v.Op)
		}
		switch {
		case kind == cdfg.KindAnd || kind == cdfg.KindOr:
			if !xt.Bool || !yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator %q needs bool operands", v.Op)
			}
			id, err := e.g.AddOp(kind, e.nodeName(name, tmp), xid, yid)
			return id, boolT, err
		case kind.IsComparison():
			if xt.Bool || yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "comparison %q needs num operands", v.Op)
			}
			id, err := e.g.AddOp(kind, e.nodeName(name, tmp), xid, yid)
			return id, boolT, err
		default: // arithmetic
			if xt.Bool || yt.Bool {
				return cdfg.InvalidNode, Type{}, errf(v.Pos, "operator %q needs num operands", v.Op)
			}
			id, err := e.g.AddOp(kind, e.nodeName(name, tmp), xid, yid)
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
		if v.Op == OpShl {
			kind = cdfg.KindShl
		}
		id, err := e.g.AddShift(kind, e.nodeName(name, tmp), xid, v.By)
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
		id, err := e.g.AddMux(e.nodeName(name, tmp), cid, tid, fid)
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
	name := a.Name
	if prefix != "" {
		name = e.join(prefix, a.Name)
	}
	id, typ, err := e.expr(a.Expr, name)
	if err != nil {
		return err
	}
	e.env[a.Name] = binding{id: id, typ: typ}
	return nil
}

// elaborate elaborates top, the last declaration of a file whose
// declarations e.funcs indexes; the earlier ones are callable helpers that
// inline at their call sites. nodes and args size the graph's blocks (see
// graphBound).
func (e *elaborator) elaborate(top *FuncDecl, nodes, args int) (*Design, error) {
	for _, p := range top.Params {
		e.reserve(p.Name)
	}
	for _, a := range top.Body {
		switch a.Expr.(type) {
		case *Unary, *Binary, *ShiftLit, *If:
			e.reserve(a.Name)
		}
	}
	e.g = cdfg.New(top.Name)
	e.g.Grow(nodes, args)
	e.names.Grow(namesPerNode * nodes)
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
		if _, err := e.g.AddOutput(e.join(OutputPrefix, r.Name), b.id); err != nil {
			return nil, errf(r.Pos, "%v", err)
		}
	}
	if err := e.g.Validate(); err != nil {
		return nil, err
	}
	return &Design{Graph: e.g, Width: width}, nil
}

// graphBound bounds the nodes and argument slots of the graph that the
// parse in s.mem elaborates to when it calls no function, from the AST
// values the parse made, by the rules of expr and elaborate: a node per
// literal, operator and conditional, one per parameter and result, and
// the zero that negations share; two arguments per binary operator and
// per negation (0 - x), one per shift and output, three per conditional.
// Repeated literals share a node and ! takes one argument, so the bound
// may overshoot.
func (s *compileState) graphBound() (nodes, args int) {
	m := &s.mem
	ops := m.unaries.count + m.binaries.count + m.shifts.count + m.ifs.count
	nodes = 1 + m.ints.count + ops
	args = 2*(m.unaries.count+m.binaries.count) + m.shifts.count + 3*m.ifs.count
	for _, f := range s.decls {
		nodes += len(f.Params) + len(f.Results)
		args += len(f.Results)
	}
	return nodes, args
}

// namesPerNode is the bytes the names block reserves per node of the
// parse's bound. User signals are named by the source, so only
// temporaries, constants and outputs take room: about 2.7 bytes per node
// on the generated designs the sweep workloads send.
const namesPerNode = 4

// maxKeptSource is the longest source whose compile state goes back to
// the free list. A longer one leaves blocks and maps sized for it, which
// clearing does not shrink, so its state is dropped instead: an idle
// state holds at most what a source of this size needs. The generated
// designs the sweep workloads send are under 5 KB.
const maxKeptSource = 16 << 10

// Compile parses and elaborates src in one step. Multi-function files are
// supported: helpers first, the top-level design last. The AST lives in
// parse memory that the next compile reuses; the Design shares nothing
// with it.
func Compile(src string) (*Design, error) {
	s := compiles.Get()
	defer func() {
		if len(src) <= maxKeptSource {
			s.reset()
			compiles.Put(s)
		}
	}()
	return s.compile(src)
}

// compile parses src into s's parse memory and elaborates it.
func (s *compileState) compile(src string) (*Design, error) {
	if s.env == nil {
		s.env = make(map[string]binding)
		s.consts = make(map[int64]cdfg.NodeID)
		s.taken = make(map[string]bool)
		s.funcs = make(map[string]*FuncDecl)
	}
	p := newParser(src, &s.mem)
	decls, err := p.parseFuncs(s.decls[:0], s.funcs)
	s.decls = decls
	if err != nil {
		return nil, err
	}
	nodes, args := s.graphBound()
	return s.elaborate(decls[len(decls)-1], nodes, args)
}

// MustCompile compiles src and panics on error; for built-in sources.
func MustCompile(src string) *Design {
	d, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("silage.MustCompile: %v", err))
	}
	return d
}
