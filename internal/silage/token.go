package silage

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

const (
	// TokEOF marks the end of input.
	TokEOF TokKind = iota
	// TokIdent is an identifier.
	TokIdent
	// TokInt is an integer literal.
	TokInt
	// TokPunct is an operator or punctuation token; the Text field holds
	// its spelling.
	TokPunct
	// TokKeyword is a reserved word (func, begin, end, if, fi, num, bool).
	TokKeyword
)

var tokKindNames = map[TokKind]string{
	TokEOF:     "end of input",
	TokIdent:   "identifier",
	TokInt:     "integer",
	TokPunct:   "punctuation",
	TokKeyword: "keyword",
}

// String names the token kind.
func (k TokKind) String() string {
	if s, ok := tokKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

// Pos is a source position, 1-based.
type Pos struct {
	Line, Col int
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token.
type Token struct {
	Kind TokKind
	// Op is the code of a TokPunct or TokKeyword token.
	Op   Op
	Text string
	Int  int64 // value for TokInt
	Pos  Pos
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokInt:
		return fmt.Sprintf("integer %d", t.Int)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Op is the code of an operator, punctuation or keyword token, and the
// operator of a Unary, Binary or ShiftLit expression. Identifiers,
// integers and end of input carry OpNone. The parser and the elaborator
// dispatch on it; Text keeps the spelling for error messages.
type Op uint8

// Operator, punctuation and keyword codes.
const (
	OpNone   Op = iota
	OpAdd       // +
	OpSub       // -
	OpMul       // *
	OpLt        // <
	OpGt        // >
	OpLe        // <=
	OpGe        // >=
	OpEq        // ==
	OpNe        // !=
	OpAnd       // &
	OpOr        // |
	OpNot       // !
	OpShl       // <<
	OpShr       // >>
	OpLParen    // (
	OpRParen    // )
	OpComma     // ,
	OpColon     // :
	OpSemi      // ;
	OpAssign    // =
	OpArrow     // ->
	OpBars      // ||, the else of an if-fi
	KwFunc      // func
	KwBegin     // begin
	KwEnd       // end
	KwIf        // if
	KwFi        // fi
	KwNum       // num
	KwBool      // bool

	numOps // the number of codes
)

var opText = [numOps]string{
	OpAdd: "+", OpSub: "-", OpMul: "*",
	OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAnd: "&", OpOr: "|", OpNot: "!", OpShl: "<<", OpShr: ">>",
	OpLParen: "(", OpRParen: ")", OpComma: ",", OpColon: ":", OpSemi: ";",
	OpAssign: "=", OpArrow: "->", OpBars: "||",
	KwFunc: "func", KwBegin: "begin", KwEnd: "end", KwIf: "if", KwFi: "fi",
	KwNum: "num", KwBool: "bool",
}

// String returns the code's spelling in source text.
func (o Op) String() string {
	if o != OpNone && o < numOps {
		return opText[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// keyword returns the code of a reserved word, or OpNone for an
// identifier.
func keyword(text string) Op {
	switch text {
	case "func":
		return KwFunc
	case "begin":
		return KwBegin
	case "end":
		return KwEnd
	case "if":
		return KwIf
	case "fi":
		return KwFi
	case "num":
		return KwNum
	case "bool":
		return KwBool
	}
	return OpNone
}

// Error is a positioned frontend error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("silage:%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
