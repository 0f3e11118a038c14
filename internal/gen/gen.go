package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/silage"
)

// Config tunes the shape of generated programs. The zero value is not
// useful; start from Default and override knobs.
type Config struct {
	// Ops is the approximate number of operation-producing assignments
	// in the body (the generator may add a few more to satisfy outputs).
	Ops int
	// Depth bounds expression nesting inside one assignment (each level
	// may introduce a binary op, mux, shift or negation).
	Depth int
	// MuxFanIn bounds the fan-in of generated conditional trees: a
	// fan-in of k emits a chain of k-1 nested if-expressions selecting
	// among k values. Values below 2 disable conditional assignments.
	MuxFanIn int
	// Inputs is the number of numeric input parameters (at least 1).
	Inputs int
	// Outputs is the number of numeric results (at least 1).
	Outputs int
	// Width is the numeric bit width (num<Width>); 0 means the Silage
	// default of 8.
	Width int
	// Unroll, when positive, appends an unrolled accumulation loop of
	// that many dependent steps — a deep critical path that makes the
	// design worth pipelining (the verify matrix's II axis).
	Unroll int
	// AllowMul permits '*' operations (latency-heavy, area-heavy).
	AllowMul bool
	// AllowShift permits constant shifts ('>>', '<<').
	AllowShift bool
}

// Default is a medium-sized profile: a handful of conditionals with
// moderate nesting, two outputs, multiplies and shifts enabled.
func Default() Config {
	return Config{
		Ops:        12,
		Depth:      2,
		MuxFanIn:   3,
		Inputs:     3,
		Outputs:    2,
		Width:      8,
		Unroll:     0,
		AllowMul:   true,
		AllowShift: true,
	}
}

// normalized clamps a config to generatable shape.
func (c Config) normalized() Config {
	if c.Ops < 1 {
		c.Ops = 1
	}
	if c.Depth < 0 {
		c.Depth = 0
	}
	if c.Inputs < 1 {
		c.Inputs = 1
	}
	if c.Outputs < 1 {
		c.Outputs = 1
	}
	if c.Width <= 0 {
		c.Width = silage.DefaultWidth
	}
	if c.Width > 16 {
		// Gate-level chips are built per bit; cap the width so the
		// differential oracle's netlist simulations stay tractable.
		c.Width = 16
	}
	if c.Unroll < 0 {
		c.Unroll = 0
	}
	return c
}

// generator carries the mutable state of one program generation.
type generator struct {
	cfg   Config
	rnd   *rand.Rand
	nums  []string // assigned numeric signals (including params)
	bools []string // assigned boolean signals
	body  []*silage.Assign
	next  int
}

// Generate builds one well-typed random function declaration. The result
// always compiles: callers may rely on silage.Compile(decl.String())
// succeeding (gen's own tests and fuzz target enforce it).
func Generate(rnd *rand.Rand, cfg Config) *silage.FuncDecl {
	cfg = cfg.normalized()
	g := &generator{cfg: cfg, rnd: rnd}

	numT := silage.Type{Width: cfg.Width}
	var params []silage.Param
	for i := 0; i < cfg.Inputs; i++ {
		name := fmt.Sprintf("a%d", i)
		params = append(params, silage.Param{Name: name, Type: numT})
		g.nums = append(g.nums, name)
	}

	for i := 0; i < cfg.Ops; i++ {
		g.statement()
	}
	for i := 0; i < cfg.Unroll; i++ {
		g.unrollStep(i)
	}

	// Results: each output is a fresh op-rooted expression so every
	// output cone contains at least one operation (a pure wire design
	// has no schedule to verify).
	var results []silage.Param
	for i := 0; i < cfg.Outputs; i++ {
		name := fmt.Sprintf("o%d", i)
		results = append(results, silage.Param{Name: name, Type: numT})
		g.assign(name, g.opExpr(g.cfg.Depth))
	}

	return &silage.FuncDecl{
		Name:    "fz",
		Params:  params,
		Results: results,
		Body:    g.body,
	}
}

// Source generates the program for one seed and renders it to compilable
// source text.
func Source(seed int64, cfg Config) string {
	return Generate(rand.New(rand.NewSource(seed)), cfg).String()
}

func (g *generator) fresh(prefix string) string {
	g.next++
	return fmt.Sprintf("%s%d", prefix, g.next)
}

func (g *generator) assign(name string, e silage.Expr) {
	g.body = append(g.body, &silage.Assign{Name: name, Expr: e})
}

// statement emits one assignment: mostly numeric, sometimes boolean (to
// feed later selects), sometimes a conditional tree.
func (g *generator) statement() {
	switch r := g.rnd.Intn(10); {
	case r < 2: // boolean signal for later reuse as a select
		name := g.fresh("p")
		g.assign(name, g.boolExpr(g.cfg.Depth))
		g.bools = append(g.bools, name)
	case r < 5 && g.cfg.MuxFanIn >= 2: // conditional tree
		name := g.fresh("m")
		g.assign(name, g.muxTree())
		g.nums = append(g.nums, name)
	default: // numeric op
		name := g.fresh("t")
		g.assign(name, g.opExpr(g.cfg.Depth))
		g.nums = append(g.nums, name)
	}
}

// unrollStep appends one step of a dependent accumulation chain, anchoring
// a deep critical path: acc_{i} = acc_{i-1} op <small expr>.
func (g *generator) unrollStep(i int) {
	name := g.fresh("acc")
	prev := g.nums[len(g.nums)-1]
	op := silage.OpAdd
	if i%3 == 1 {
		op = silage.OpSub
	} else if i%3 == 2 && g.cfg.AllowMul {
		op = silage.OpMul
	}
	e := &silage.Binary{Op: op, X: &silage.Ident{Name: prev}, Y: g.numLeaf()}
	g.assign(name, e)
	g.nums = append(g.nums, name)
}

// muxTree builds a nested if-chain with fan-in 2..MuxFanIn.
func (g *generator) muxTree() silage.Expr {
	fanin := 2
	if g.cfg.MuxFanIn > 2 {
		fanin += g.rnd.Intn(g.cfg.MuxFanIn - 1)
	}
	depth := g.cfg.Depth
	e := g.numExpr(depth)
	for k := 1; k < fanin; k++ {
		e = &silage.If{
			Cond: g.boolExpr(depth),
			Then: g.numExpr(depth),
			Else: e,
		}
	}
	return e
}

// opExpr returns a numeric expression guaranteed to contain at least one
// operation node (never a bare ident or literal).
func (g *generator) opExpr(depth int) silage.Expr {
	if depth < 1 {
		depth = 1
	}
	e := g.numExpr(depth)
	switch e.(type) {
	case *silage.Ident, *silage.IntLit:
		// Wrap wires into a real op so the cone is non-empty.
		return &silage.Binary{Op: silage.OpAdd, X: e, Y: g.numLeaf()}
	default:
		return e
	}
}

// numExpr returns a numeric expression of bounded depth.
func (g *generator) numExpr(depth int) silage.Expr {
	if depth <= 0 {
		return g.numLeaf()
	}
	switch r := g.rnd.Intn(12); {
	case r < 2:
		return g.numLeaf()
	case r < 7: // arithmetic
		ops := []silage.Op{silage.OpAdd, silage.OpSub}
		if g.cfg.AllowMul {
			ops = append(ops, silage.OpMul)
		}
		op := ops[g.rnd.Intn(len(ops))]
		return &silage.Binary{Op: op, X: g.numExpr(depth - 1), Y: g.numExpr(depth - 1)}
	case r < 8 && g.cfg.AllowShift: // constant shift
		op := silage.OpShr
		if g.rnd.Intn(2) == 0 {
			op = silage.OpShl
		}
		by := 1 + g.rnd.Intn(3)
		return &silage.ShiftLit{Op: op, X: g.numExpr(depth - 1), By: by}
	case r < 9: // negation
		x := g.numExpr(depth - 1)
		if lit, ok := x.(*silage.IntLit); ok {
			// The parser folds negated literals into the literal, so
			// emit the folded form directly to preserve the printer/
			// parser fixpoint.
			return &silage.IntLit{Value: -lit.Value}
		}
		return &silage.Unary{Op: silage.OpSub, X: x}
	default: // mux
		if g.cfg.MuxFanIn < 2 {
			return &silage.Binary{Op: silage.OpAdd, X: g.numExpr(depth - 1), Y: g.numLeaf()}
		}
		return &silage.If{
			Cond: g.boolExpr(depth - 1),
			Then: g.numExpr(depth - 1),
			Else: g.numExpr(depth - 1),
		}
	}
}

// boolExpr returns a boolean expression of bounded depth.
func (g *generator) boolExpr(depth int) silage.Expr {
	if depth > 0 && len(g.bools) > 0 && g.rnd.Intn(4) == 0 {
		switch g.rnd.Intn(3) {
		case 0:
			return &silage.Unary{Op: silage.OpNot, X: g.boolLeaf()}
		case 1:
			return &silage.Binary{Op: silage.OpAnd, X: g.boolLeaf(), Y: g.boolExpr(depth - 1)}
		default:
			return &silage.Binary{Op: silage.OpOr, X: g.boolLeaf(), Y: g.boolExpr(depth - 1)}
		}
	}
	cmps := []silage.Op{silage.OpLt, silage.OpGt, silage.OpLe, silage.OpGe, silage.OpEq, silage.OpNe}
	op := cmps[g.rnd.Intn(len(cmps))]
	return &silage.Binary{Op: op, X: g.numLeaf(), Y: g.numLeaf()}
}

// numLeaf returns an existing numeric signal or a literal.
func (g *generator) numLeaf() silage.Expr {
	if g.rnd.Intn(4) == 0 {
		limit := int64(1) << uint(g.cfg.Width)
		return &silage.IntLit{Value: g.rnd.Int63n(limit)}
	}
	return &silage.Ident{Name: g.nums[g.rnd.Intn(len(g.nums))]}
}

// boolLeaf returns an existing boolean signal (callers check the pool is
// non-empty).
func (g *generator) boolLeaf() silage.Expr {
	return &silage.Ident{Name: g.bools[g.rnd.Intn(len(g.bools))]}
}
