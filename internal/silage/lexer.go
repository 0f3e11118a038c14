package silage

import (
	"strconv"
	"strings"
)

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

// twoCharPuncts are the multi-character operators, longest match first.
var twoCharPuncts = []string{"->", "||", "<=", ">=", "==", "!=", "<<", ">>"}

// Next returns the next token. Lexical errors are reported via a TokEOF
// token and Err().
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	pos := Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: pos}
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			if l.err == nil {
				l.err = errf(pos, "integer literal %q out of range", text)
			}
			return Token{Kind: TokEOF, Pos: pos}
		}
		return Token{Kind: TokInt, Text: text, Int: v, Pos: pos}
	default:
		two := ""
		if l.off+1 < len(l.src) {
			two = l.src[l.off : l.off+2]
		}
		for _, p := range twoCharPuncts {
			if two == p {
				l.advance()
				l.advance()
				return Token{Kind: TokPunct, Text: p, Pos: pos}
			}
		}
		if strings.IndexByte("()+-*<>=!&|,:;", c) >= 0 {
			l.advance()
			return Token{Kind: TokPunct, Text: l.src[l.off-1 : l.off], Pos: pos}
		}
		if l.err == nil {
			l.err = errf(pos, "unexpected character %q", string(c))
		}
		l.advance()
		return Token{Kind: TokEOF, Pos: pos}
	}
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
