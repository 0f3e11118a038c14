package silage

import (
	"fmt"
	"strings"
)

// Type is a Silage value type.
type Type struct {
	// Bool marks the boolean type; otherwise the type is a W-bit number.
	Bool bool
	// Width is the bit width for numeric types (default 8).
	Width int
}

// DefaultWidth is the word width assumed when a num type carries no
// annotation — 8 bits, matching the paper's experimental setup.
const DefaultWidth = 8

// String renders the type in source syntax.
func (t Type) String() string {
	if t.Bool {
		return "bool"
	}
	if t.Width == DefaultWidth {
		return "num"
	}
	return fmt.Sprintf("num<%d>", t.Width)
}

// Param is a named, typed function parameter or result.
type Param struct {
	Name string
	Type Type
	Pos  Pos
}

// FuncDecl is a function declaration: the unit of elaboration.
type FuncDecl struct {
	Name    string
	Params  []Param
	Results []Param
	Body    []*Assign
	Pos     Pos
}

// Assign is a single-assignment statement name = expr.
type Assign struct {
	Name string
	Expr Expr
	Pos  Pos
}

// Expr is an expression node.
type Expr interface {
	// ExprPos returns the source position of the expression.
	ExprPos() Pos
	print(b *strings.Builder)
}

// Ident references a previously assigned signal or a parameter.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// Unary is a prefix operation: OpSub (negation) or OpNot (boolean not).
type Unary struct {
	Op  Op
	X   Expr
	Pos Pos
}

// Binary is an infix operation: + - * < > <= >= == != & |.
type Binary struct {
	Op   Op
	X, Y Expr
	Pos  Pos
}

// ShiftLit is a constant shift: x >> k or x << k.
type ShiftLit struct {
	Op  Op // OpShr or OpShl
	X   Expr
	By  int
	Pos Pos
}

// If is the Silage guarded conditional expression
// "if Cond -> Then || Else fi".
type If struct {
	Cond, Then, Else Expr
	Pos              Pos
}

// Call applies another function in the same file; the callee is inlined
// during elaboration. Only single-result functions are callable.
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

// ExprPos implements Expr.
func (e *Ident) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *IntLit) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Unary) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Binary) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *ShiftLit) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *If) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *Call) ExprPos() Pos { return e.Pos }

func (e *Ident) print(b *strings.Builder)  { b.WriteString(e.Name) }
func (e *IntLit) print(b *strings.Builder) { fmt.Fprintf(b, "%d", e.Value) }
func (e *Unary) print(b *strings.Builder) {
	b.WriteString(e.Op.String())
	b.WriteByte('(')
	e.X.print(b)
	b.WriteByte(')')
}
func (e *Binary) print(b *strings.Builder) {
	b.WriteByte('(')
	e.X.print(b)
	b.WriteByte(' ')
	b.WriteString(e.Op.String())
	b.WriteByte(' ')
	e.Y.print(b)
	b.WriteByte(')')
}
func (e *ShiftLit) print(b *strings.Builder) {
	b.WriteByte('(')
	e.X.print(b)
	fmt.Fprintf(b, " %s %d)", e.Op, e.By)
}
func (e *If) print(b *strings.Builder) {
	// Parenthesized: the grammar admits a bare if-fi only at expression
	// top level, so an If nested as a binary/shift/unary operand must
	// print inside parens to stay parsable (the verification harness's
	// generator builds such ASTs directly).
	b.WriteString("(if ")
	e.Cond.print(b)
	b.WriteString(" -> ")
	e.Then.print(b)
	b.WriteString(" || ")
	e.Else.print(b)
	b.WriteString(" fi)")
}
func (e *Call) print(b *strings.Builder) {
	b.WriteString(e.Name)
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		a.print(b)
	}
	b.WriteByte(')')
}

// ExprString renders an expression in (fully parenthesized) source syntax.
func ExprString(e Expr) string {
	var b strings.Builder
	e.print(&b)
	return b.String()
}

// String renders the function declaration back to parsable source text.
func (f *FuncDecl) String() string {
	var b strings.Builder
	b.WriteString("func ")
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", p.Name, p.Type)
	}
	b.WriteString(") ")
	for i, p := range f.Results {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", p.Name, p.Type)
	}
	b.WriteString(" =\nbegin\n")
	for _, a := range f.Body {
		fmt.Fprintf(&b, "    %s = %s;\n", a.Name, ExprString(a.Expr))
	}
	b.WriteString("end\n")
	return b.String()
}
