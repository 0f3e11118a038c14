package silage

import "strconv"

// Lexer splits source text into tokens. Create with NewLexer; Next returns
// TokEOF forever once the input is exhausted.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	err  error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error { return l.err }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token. Lexical errors are reported via a TokEOF
// token and Err().
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	pos := Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}
	}
	start := l.off
	c := l.src[start]
	switch {
	case isIdentStart(c):
		// Identifiers, integers and operators hold no newline, so only
		// the column moves.
		for l.off++; l.off < len(l.src) && isIdentCont(l.src[l.off]); l.off++ {
		}
		l.col += l.off - start
		text := l.src[start:l.off]
		if op := keyword(text); op != OpNone {
			return Token{Kind: TokKeyword, Op: op, Text: text, Pos: pos}
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}
	case isDigit(c):
		for l.off++; l.off < len(l.src) && isDigit(l.src[l.off]); l.off++ {
		}
		l.col += l.off - start
		text := l.src[start:l.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			if l.err == nil {
				l.err = errf(pos, "integer literal %q out of range", text)
			}
			return Token{Kind: TokEOF, Pos: pos}
		}
		return Token{Kind: TokInt, Text: text, Int: v, Pos: pos}
	}
	// Operators and punctuation, longest match first.
	op, n := OpNone, 1
	next := l.peek2()
	switch c {
	case '(':
		op = OpLParen
	case ')':
		op = OpRParen
	case '+':
		op = OpAdd
	case '-':
		op = OpSub
		if next == '>' {
			op, n = OpArrow, 2
		}
	case '*':
		op = OpMul
	case '<':
		switch next {
		case '=':
			op, n = OpLe, 2
		case '<':
			op, n = OpShl, 2
		default:
			op = OpLt
		}
	case '>':
		switch next {
		case '=':
			op, n = OpGe, 2
		case '>':
			op, n = OpShr, 2
		default:
			op = OpGt
		}
	case '=':
		op = OpAssign
		if next == '=' {
			op, n = OpEq, 2
		}
	case '!':
		op = OpNot
		if next == '=' {
			op, n = OpNe, 2
		}
	case '&':
		op = OpAnd
	case '|':
		op = OpOr
		if next == '|' {
			op, n = OpBars, 2
		}
	case ',':
		op = OpComma
	case ':':
		op = OpColon
	case ';':
		op = OpSemi
	default:
		if l.err == nil {
			l.err = errf(pos, "unexpected character %q", string(c))
		}
		l.advance()
		return Token{Kind: TokEOF, Pos: pos}
	}
	l.off += n
	l.col += n
	return Token{Kind: TokPunct, Op: op, Text: l.src[start:l.off], Pos: pos}
}

// LexAll tokenizes the whole input, returning the tokens (excluding the
// trailing EOF) or the first lexical error. The parser pulls tokens from a
// Lexer one at a time instead; LexAll is the reference its tests compare
// against.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t := l.Next()
		if l.Err() != nil {
			return nil, l.Err()
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
