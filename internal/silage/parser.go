package silage

import "fmt"

// Parser is a recursive-descent parser for the Silage-inspired language.
// It pulls tokens from its lexer one at a time, holding only the current
// one, and builds the AST in its parse memory.
type Parser struct {
	lex Lexer
	tok Token
	// last is the position of the last token before end of input (1:1
	// when there is none); the end-of-input token reports it.
	last Pos
	mem  *parseMem
	// depth counts the unary operators, conditionals, calls and
	// parentheses the parser is inside of (see maxDepth).
	depth int
}

// maxDepth bounds an expression tree's height: the most nodes on a path
// from an assignment's expression down to a leaf, where each operator of
// a chain like a+b+c is one. The elaborator and the AST printer recurse
// once per level. The parser recurses once per unary operator,
// conditional, call and pair of parentheses it is inside of, and allows
// 2*maxDepth of those: the printed form of a tree within maxDepth, which
// parenthesizes every operator, then parses again. The designs in this
// repository nest at most 6 levels.
const maxDepth = 256

// errDepth reports an expression nested past maxDepth at pos.
func errDepth(pos Pos) error {
	return errf(pos, "expression nested deeper than %d levels", maxDepth)
}

// open enters one more level of the parser's recursion at pos (see
// maxDepth); the caller leaves it with p.depth--.
func (p *Parser) open(pos Pos) error {
	if p.depth++; p.depth > 2*maxDepth {
		return errDepth(pos)
	}
	return nil
}

func newParser(src string, mem *parseMem) *Parser {
	p := &Parser{lex: Lexer{src: src, line: 1, col: 1}, last: Pos{Line: 1, Col: 1}, mem: mem}
	p.pull()
	return p
}

// Parse parses a single function declaration from src.
func Parse(src string) (*FuncDecl, error) {
	p := newParser(src, new(parseMem))
	f, err := p.parseFunc()
	if t := p.tok; err == nil && t.Kind != TokEOF {
		err = errf(t.Pos, "unexpected %s after function end", t)
	}
	if err := p.finish(err); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseFile parses a file holding one or more function declarations. The
// last declaration is the top-level design; earlier ones are callable
// helpers.
func ParseFile(src string) ([]*FuncDecl, error) {
	funcs, err := newParser(src, new(parseMem)).parseFuncs(nil, make(map[string]*FuncDecl))
	if err != nil {
		return nil, err
	}
	return funcs, nil
}

// parseFuncs appends every declaration of the input to funcs and indexes
// it by name in byName, rejecting a name declared twice.
func (p *Parser) parseFuncs(funcs []*FuncDecl, byName map[string]*FuncDecl) ([]*FuncDecl, error) {
	var err error
	for p.tok.Kind != TokEOF {
		var f *FuncDecl
		if f, err = p.parseFunc(); err != nil {
			break
		}
		funcs = append(funcs, f)
	}
	if err := p.finish(err); err != nil {
		return funcs, err
	}
	if len(funcs) == 0 {
		return funcs, errf(Pos{Line: 1, Col: 1}, "no function declarations")
	}
	for _, f := range funcs {
		if _, dup := byName[f.Name]; dup {
			return funcs, errf(f.Pos, "duplicate function %q", f.Name)
		}
		byName[f.Name] = f
	}
	return funcs, nil
}

// finish returns the error a parse ends with. A lexical error anywhere in
// the input outranks a parse error, as if the whole input had been lexed
// first: a parse that stopped on err lexes the rest of the input, and the
// first lexical error, if any, is returned in its place.
func (p *Parser) finish(err error) error {
	for err != nil && p.lex.Err() == nil {
		if p.lex.Next().Kind == TokEOF {
			break
		}
	}
	if lerr := p.lex.Err(); lerr != nil {
		return lerr
	}
	return err
}

// pull makes the lexer's next token current. The lexer reports a lexical
// error as end of input, which finish turns into the error; either way
// the end-of-input token takes the last real token's position.
func (p *Parser) pull() {
	t := p.lex.Next()
	if t.Kind == TokEOF {
		t.Pos = p.last
	} else {
		p.last = t.Pos
	}
	p.tok = t
}

// next returns the current token and advances past it; end of input stays
// current.
func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.pull()
	}
	return t
}

// at reports whether the current token is the operator, punctuation or
// keyword op.
func (p *Parser) at(op Op) bool { return p.tok.Op == op }

// expect consumes the operator, punctuation or keyword op.
func (p *Parser) expect(op Op) (Token, error) {
	t := p.tok
	if t.Op != op {
		return t, errf(t.Pos, "expected %q, found %s", op, t)
	}
	return p.next(), nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.tok
	if t.Kind != TokIdent {
		return t, errf(t.Pos, "expected identifier, found %s", t)
	}
	return p.next(), nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	kw, err := p.expect(KwFunc)
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := p.mem.funcs.new()
	f.Name, f.Pos = name.Text, kw.Pos
	if _, err := p.expect(OpLParen); err != nil {
		return nil, err
	}
	m := p.mem
	if !p.at(OpRParen) {
		if err := p.parseParams(); err != nil {
			return nil, err
		}
		f.Params = pop(&m.paramStack, &m.params, 0)
	}
	if _, err := p.expect(OpRParen); err != nil {
		return nil, err
	}
	if err := p.parseParams(); err != nil {
		return nil, err
	}
	f.Results = pop(&m.paramStack, &m.params, 0)
	if _, err := p.expect(OpAssign); err != nil {
		return nil, err
	}
	if _, err := p.expect(KwBegin); err != nil {
		return nil, err
	}
	for {
		t := p.tok
		if t.Op == KwEnd {
			p.next()
			break
		}
		if t.Kind == TokEOF {
			return nil, errf(t.Pos, "missing \"end\"")
		}
		a, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		m.stmtStack = append(m.stmtStack, a)
	}
	f.Body = pop(&m.stmtStack, &m.stmts, 0)
	return f, nil
}

// parseParams stacks a comma-separated list of at least one parameter.
func (p *Parser) parseParams() error {
	for {
		param, err := p.parseParam()
		if err != nil {
			return err
		}
		p.mem.paramStack = append(p.mem.paramStack, param)
		if !p.at(OpComma) {
			return nil
		}
		p.next()
	}
}

func (p *Parser) parseParam() (Param, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Param{}, err
	}
	if _, err := p.expect(OpColon); err != nil {
		return Param{}, err
	}
	typ, err := p.parseType()
	if err != nil {
		return Param{}, err
	}
	return Param{Name: name.Text, Type: typ, Pos: name.Pos}, nil
}

func (p *Parser) parseType() (Type, error) {
	t := p.tok
	switch t.Op {
	case KwBool:
		p.next()
		return Type{Bool: true}, nil
	case KwNum:
		p.next()
		typ := Type{Width: DefaultWidth}
		if p.at(OpLt) {
			p.next()
			w := p.tok
			if w.Kind != TokInt {
				return Type{}, errf(w.Pos, "expected width, found %s", w)
			}
			if w.Int < 1 || w.Int > 64 {
				return Type{}, errf(w.Pos, "width %d outside [1,64]", w.Int)
			}
			p.next()
			typ.Width = int(w.Int)
			if _, err := p.expect(OpGt); err != nil {
				return Type{}, err
			}
		}
		return typ, nil
	default:
		return Type{}, errf(t.Pos, "expected type, found %s", t)
	}
}

func (p *Parser) parseAssign() (*Assign, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(OpAssign); err != nil {
		return nil, err
	}
	e, h, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if h > maxDepth {
		return nil, errDepth(e.ExprPos())
	}
	if _, err := p.expect(OpSemi); err != nil {
		return nil, err
	}
	a := p.mem.assigns.new()
	a.Name, a.Expr, a.Pos = name.Text, e, name.Pos
	return a, nil
}

// parseExpr parses the full expression grammar, with the if-fi conditional
// at the lowest precedence. It returns the expression with its height in
// levels (see maxDepth).
func (p *Parser) parseExpr() (Expr, int, error) {
	t := p.tok
	if t.Op != KwIf {
		return p.parseBinary(precOr)
	}
	p.next()
	if err := p.open(t.Pos); err != nil {
		return nil, 0, err
	}
	cond, hc, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(OpArrow); err != nil {
		return nil, 0, err
	}
	then, ht, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(OpBars); err != nil {
		return nil, 0, err
	}
	els, he, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(KwFi); err != nil {
		return nil, 0, err
	}
	p.depth--
	x := p.mem.ifs.new()
	x.Cond, x.Then, x.Else, x.Pos = cond, then, els, t.Pos
	return x, 1 + max(hc, ht, he), nil
}

// Binary operator precedence, loosest first; 0 marks a token that is no
// binary operator.
const (
	precOr = 1 + iota
	precAnd
	precCmp
	precAdd
	precMul
	precShift
)

var precedence = [numOps]int{
	OpOr: precOr, OpAnd: precAnd,
	OpLt: precCmp, OpGt: precCmp, OpLe: precCmp, OpGe: precCmp, OpEq: precCmp, OpNe: precCmp,
	OpAdd: precAdd, OpSub: precAdd, OpMul: precMul, OpShl: precShift, OpShr: precShift,
}

// parseBinary parses a chain of binary operators of precedence min or
// tighter over unary operands, by precedence climbing. Every level is
// left-associative except comparisons, which do not chain: once a
// comparison is built, no operator of its precedence or tighter may
// extend it, at this level or any level above. A shift's right operand
// is an integer literal, not an expression. Each operator of a chain puts
// the chain so far one level deeper, with no recursion.
func (p *Parser) parseBinary(min int) (Expr, int, error) {
	x, h, err := p.parseUnary()
	if err != nil {
		return nil, 0, err
	}
	limit := precShift
	for {
		t := p.tok
		prec := precedence[t.Op]
		if prec < min || prec > limit {
			return x, h, nil
		}
		p.next()
		if prec == precShift {
			amt := p.tok
			if amt.Kind != TokInt {
				return nil, 0, errf(amt.Pos, "shift amount must be an integer literal, found %s", amt)
			}
			if amt.Int < 0 || amt.Int > 63 {
				return nil, 0, errf(amt.Pos, "shift amount %d outside [0,63]", amt.Int)
			}
			p.next()
			s := p.mem.shifts.new()
			s.Op, s.X, s.By, s.Pos = t.Op, x, int(amt.Int), t.Pos
			x, h = s, h+1
			continue
		}
		y, hy, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, 0, err
		}
		b := p.mem.binaries.new()
		b.Op, b.X, b.Y, b.Pos = t.Op, x, y, t.Pos
		x, h = b, 1+max(h, hy)
		limit = prec
		if prec == precCmp {
			limit = precCmp - 1
		}
	}
}

func (p *Parser) parseUnary() (Expr, int, error) {
	t := p.tok
	if t.Op != OpSub && t.Op != OpNot {
		return p.parsePrimary()
	}
	p.next()
	if err := p.open(t.Pos); err != nil {
		return nil, 0, err
	}
	x, h, err := p.parseUnary()
	if err != nil {
		return nil, 0, err
	}
	p.depth--
	// Fold negation of literals immediately.
	if lit, ok := x.(*IntLit); ok && t.Op == OpSub {
		lit.Value, lit.Pos = -lit.Value, t.Pos
		return lit, h + 1, nil
	}
	u := p.mem.unaries.new()
	u.Op, u.X, u.Pos = t.Op, x, t.Pos
	return u, h + 1, nil
}

func (p *Parser) parsePrimary() (Expr, int, error) {
	t := p.tok
	switch {
	case t.Kind == TokIdent:
		p.next()
		if !p.at(OpLParen) {
			id := p.mem.idents.new()
			id.Name, id.Pos = t.Text, t.Pos
			return id, 1, nil
		}
		p.next()
		if err := p.open(t.Pos); err != nil {
			return nil, 0, err
		}
		call := p.mem.calls.new()
		call.Name, call.Pos = t.Text, t.Pos
		m := p.mem
		mark := len(m.exprStack)
		h := 0
		if !p.at(OpRParen) {
			for {
				arg, ha, err := p.parseExpr()
				if err != nil {
					return nil, 0, err
				}
				m.exprStack = append(m.exprStack, arg)
				h = max(h, ha)
				if !p.at(OpComma) {
					break
				}
				p.next()
			}
		}
		call.Args = pop(&m.exprStack, &m.exprs, mark)
		if _, err := p.expect(OpRParen); err != nil {
			return nil, 0, err
		}
		p.depth--
		return call, h + 1, nil
	case t.Kind == TokInt:
		p.next()
		lit := p.mem.ints.new()
		lit.Value, lit.Pos = t.Int, t.Pos
		return lit, 1, nil
	case t.Op == OpLParen:
		p.next()
		if err := p.open(t.Pos); err != nil {
			return nil, 0, err
		}
		e, h, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if _, err := p.expect(OpRParen); err != nil {
			return nil, 0, err
		}
		p.depth--
		return e, h, nil
	default:
		return nil, 0, errf(t.Pos, "expected expression, found %s", t)
	}
}

// MustParse parses src and panics on error; for statically known-good
// sources such as the built-in benchmarks.
func MustParse(src string) *FuncDecl {
	f, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("silage.MustParse: %v", err))
	}
	return f
}
