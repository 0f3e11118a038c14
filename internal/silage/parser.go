package silage

import "fmt"

// Parser is a recursive-descent parser for the Silage-inspired language.
// It pulls tokens from its lexer one at a time, holding only the current
// one.
type Parser struct {
	lex *Lexer
	tok Token
	// last is the position of the last token before end of input (1:1
	// when there is none); the end-of-input token reports it.
	last Pos
}

func newParser(src string) *Parser {
	p := &Parser{lex: NewLexer(src), last: Pos{Line: 1, Col: 1}}
	p.pull()
	return p
}

// Parse parses a single function declaration from src.
func Parse(src string) (*FuncDecl, error) {
	p := newParser(src)
	f, err := p.parseFunc()
	if t := p.cur(); err == nil && t.Kind != TokEOF {
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
	p := newParser(src)
	var funcs []*FuncDecl
	var err error
	for p.cur().Kind != TokEOF {
		var f *FuncDecl
		if f, err = p.parseFunc(); err != nil {
			break
		}
		funcs = append(funcs, f)
	}
	if err := p.finish(err); err != nil {
		return nil, err
	}
	if len(funcs) == 0 {
		return nil, errf(Pos{Line: 1, Col: 1}, "no function declarations")
	}
	seen := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		if seen[f.Name] {
			return nil, errf(f.Pos, "duplicate function %q", f.Name)
		}
		seen[f.Name] = true
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

func (p *Parser) cur() Token { return p.tok }

// next returns the current token and advances past it; end of input stays
// current.
func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.pull()
	}
	return t
}

func (p *Parser) expectPunct(text string) (Token, error) {
	t := p.cur()
	if t.Kind != TokPunct || t.Text != text {
		return t, errf(t.Pos, "expected %q, found %s", text, t)
	}
	return p.next(), nil
}

func (p *Parser) expectKeyword(word string) (Token, error) {
	t := p.cur()
	if t.Kind != TokKeyword || t.Text != word {
		return t, errf(t.Pos, "expected %q, found %s", word, t)
	}
	return p.next(), nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return t, errf(t.Pos, "expected identifier, found %s", t)
	}
	return p.next(), nil
}

func (p *Parser) atPunct(text string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == text
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	kw, err := p.expectKeyword("func")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := &FuncDecl{Name: name.Text, Pos: kw.Pos}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, param)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	for {
		ret, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		f.Results = append(f.Results, ret)
		if !p.atPunct(",") {
			break
		}
		p.next()
	}
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	if _, err := p.expectKeyword("begin"); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == TokKeyword && t.Text == "end" {
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
		f.Body = append(f.Body, a)
	}
	return f, nil
}

func (p *Parser) parseParam() (Param, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Param{}, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return Param{}, err
	}
	typ, err := p.parseType()
	if err != nil {
		return Param{}, err
	}
	return Param{Name: name.Text, Type: typ, Pos: name.Pos}, nil
}

func (p *Parser) parseType() (Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return Type{}, errf(t.Pos, "expected type, found %s", t)
	}
	switch t.Text {
	case "bool":
		p.next()
		return Type{Bool: true}, nil
	case "num":
		p.next()
		typ := Type{Width: DefaultWidth}
		if p.atPunct("<") {
			p.next()
			w := p.cur()
			if w.Kind != TokInt {
				return Type{}, errf(w.Pos, "expected width, found %s", w)
			}
			if w.Int < 1 || w.Int > 64 {
				return Type{}, errf(w.Pos, "width %d outside [1,64]", w.Int)
			}
			p.next()
			typ.Width = int(w.Int)
			if _, err := p.expectPunct(">"); err != nil {
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
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &Assign{Name: name.Text, Expr: e, Pos: name.Pos}, nil
}

// parseExpr parses the full expression grammar, with the if-fi conditional
// at the lowest precedence.
func (p *Parser) parseExpr() (Expr, error) {
	t := p.cur()
	if t.Kind == TokKeyword && t.Text == "if" {
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("->"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("||"); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKeyword("fi"); err != nil {
			return nil, err
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.Pos}, nil
	}
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atPunct("|") {
		op := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: "|", X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atPunct("&") {
		op := p.next()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: "&", X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

var cmpOps = map[string]bool{"<": true, ">": true, "<=": true, ">=": true, "==": true, "!=": true}

func (p *Parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && cmpOps[t.Text] {
		p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Text, X: x, Y: y, Pos: t.Pos}, nil
	}
	return x, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atPunct("+") || p.atPunct("-") {
		op := p.next()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op.Text, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseMul() (Expr, error) {
	x, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	for p.atPunct("*") {
		op := p.next()
		y, err := p.parseShift()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: "*", X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseShift() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atPunct(">>") || p.atPunct("<<") {
		op := p.next()
		amt := p.cur()
		if amt.Kind != TokInt {
			return nil, errf(amt.Pos, "shift amount must be an integer literal, found %s", amt)
		}
		if amt.Int < 0 || amt.Int > 63 {
			return nil, errf(amt.Pos, "shift amount %d outside [0,63]", amt.Int)
		}
		p.next()
		x = &ShiftLit{Op: op.Text, X: x, By: int(amt.Int), Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct && (t.Text == "-" || t.Text == "!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of literals immediately.
		if t.Text == "-" {
			if lit, ok := x.(*IntLit); ok {
				return &IntLit{Value: -lit.Value, Pos: t.Pos}, nil
			}
		}
		return &Unary{Op: t.Text, X: x, Pos: t.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokIdent:
		p.next()
		if p.atPunct("(") {
			p.next()
			call := &Call{Name: t.Text, Pos: t.Pos}
			if !p.atPunct(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.atPunct(",") {
						break
					}
					p.next()
				}
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case t.Kind == TokInt:
		p.next()
		return &IntLit{Value: t.Int, Pos: t.Pos}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errf(t.Pos, "expected expression, found %s", t)
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
