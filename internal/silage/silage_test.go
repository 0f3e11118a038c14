package silage

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cdfg"
	"repro/internal/scratch"
)

const absDiffSrc = `
# |a-b| from the paper's Figures 1-2
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("x = a + 42; # comment\ny = x >> 2;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"x", "=", "a", "+", "", ";", "y", "=", "x", ">>", "", ";"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), texts, len(want))
	}
	if toks[4].Kind != TokInt || toks[4].Int != 42 {
		t.Errorf("token 4 = %v, want integer 42", toks[4])
	}
	if toks[9].Kind != TokPunct || toks[9].Text != ">>" {
		t.Errorf("token 9 = %v, want >>", toks[9])
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("bb at %v", toks[1].Pos)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("func if fi begin end num bool funcx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if toks[i].Kind != TokKeyword {
			t.Errorf("token %d (%s) should be keyword", i, toks[i].Text)
		}
	}
	if toks[7].Kind != TokIdent {
		t.Errorf("funcx should be an identifier")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := LexAll("a $ b"); err == nil {
		t.Error("stray $ accepted")
	}
	if _, err := LexAll("99999999999999999999"); err == nil {
		t.Error("overflowing literal accepted")
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks, err := LexAll("-> || <= >= == != << >>")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"->", "||", "<=", ">=", "==", "!=", "<<", ">>"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestParseAbsDiff(t *testing.T) {
	f, err := Parse(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "absdiff" {
		t.Errorf("name = %q", f.Name)
	}
	if len(f.Params) != 2 || len(f.Results) != 1 || len(f.Body) != 4 {
		t.Errorf("shape: %d params %d results %d stmts", len(f.Params), len(f.Results), len(f.Body))
	}
	if f.Params[0].Type.Width != 8 || f.Params[0].Type.Bool {
		t.Errorf("param type = %v", f.Params[0].Type)
	}
	ifx, ok := f.Body[3].Expr.(*If)
	if !ok {
		t.Fatalf("last stmt is %T, want *If", f.Body[3].Expr)
	}
	if ExprString(ifx.Cond) != "g" {
		t.Errorf("cond = %s", ExprString(ifx.Cond))
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("func t(a: num, b: num, c: num) o: bool = begin o = a + b * c > a - b; end")
	if err != nil {
		t.Fatal(err)
	}
	got := ExprString(f.Body[0].Expr)
	want := "((a + (b * c)) > (a - b))"
	if got != want {
		t.Errorf("precedence: got %s, want %s", got, want)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	f, err := Parse("func t(a: num, b: num) o: bool = begin o = a > b & b > a | a == b; end")
	if err != nil {
		t.Fatal(err)
	}
	got := ExprString(f.Body[0].Expr)
	want := "(((a > b) & (b > a)) | (a == b))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestParseShiftAndUnary(t *testing.T) {
	f, err := Parse("func t(a: num) o: num = begin o = -(a >> 2) + a << 1; end")
	if err != nil {
		t.Fatal(err)
	}
	// Shifts bind tighter than additive operators.
	got := ExprString(f.Body[0].Expr)
	want := "(-((a >> 2)) + (a << 1))"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestParseNegativeLiteralFolds(t *testing.T) {
	f, err := Parse("func t(a: num) o: num = begin o = a + -3; end")
	if err != nil {
		t.Fatal(err)
	}
	bin := f.Body[0].Expr.(*Binary)
	lit, ok := bin.Y.(*IntLit)
	if !ok || lit.Value != -3 {
		t.Errorf("got %s, want folded -3", ExprString(bin.Y))
	}
}

func TestParseNestedIf(t *testing.T) {
	src := `func t(a: num, b: num) o: num =
begin
    g1 = a > b;
    g2 = a == b;
    o = if g1 -> a || if g2 -> b || a - b fi fi;
end`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := f.Body[2].Expr.(*If)
	if _, ok := outer.Else.(*If); !ok {
		t.Errorf("nested if not parsed: %s", ExprString(outer))
	}
}

func TestParseMultipleResults(t *testing.T) {
	src := "func t(a: num) x: num, y: bool = begin x = a + 1; y = a > 0; end"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 2 || f.Results[1].Name != "y" || !f.Results[1].Type.Bool {
		t.Errorf("results = %+v", f.Results)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing func", "begin end"},
		{"missing paren", "func t(a: num o: num = begin end"},
		{"missing type", "func t(a) o: num = begin end"},
		{"bad width", "func t(a: num<0>) o: num = begin o = a; end"},
		{"huge width", "func t(a: num<99>) o: num = begin o = a; end"},
		{"missing end", "func t(a: num) o: num = begin o = a;"},
		{"missing semicolon", "func t(a: num) o: num = begin o = a end"},
		{"missing fi", "func t(a: num, g: bool) o: num = begin o = if g -> a || a; end"},
		{"missing arrow", "func t(a: num, g: bool) o: num = begin o = if g a || a fi; end"},
		{"missing else", "func t(a: num, g: bool) o: num = begin o = if g -> a fi; end"},
		{"variable shift", "func t(a: num, b: num) o: num = begin o = a >> b; end"},
		{"trailing junk", "func t(a: num) o: num = begin o = a; end extra"},
		{"empty expr", "func t(a: num) o: num = begin o = ; end"},
		{"unclosed paren", "func t(a: num) o: num = begin o = (a + 1; end"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("func t(a: num) o: num =\nbegin\n  o = a +;\nend")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error %q lacks line 3 position", err)
	}
}

// TestExpressionDepthBound: an expression tree maxDepth levels high
// compiles, and its printed form parses again; one a level higher fails
// with a positioned error, whatever nests: a left-deep operator chain,
// unary operators, conditionals or call arguments. Parentheses, which
// make no level of the tree, are allowed 2*maxDepth deep. At 100,000
// levels each fails before the parser, the elaborator or the printer
// recurses that deep.
func TestExpressionDepthBound(t *testing.T) {
	const id = "func id(x: num) y: num = begin y = x; end\n"
	for _, c := range []struct {
		name  string
		limit int
		expr  func(n int) string
	}{
		{"chain", maxDepth - 1, func(n int) string { return "a" + strings.Repeat(" + a", n) }},
		{"unary", maxDepth - 1, func(n int) string { return strings.Repeat("- ", n) + "a" }},
		{"conditionals", maxDepth - 1, func(n int) string { return strings.Repeat("if g -> ", n) + "a" + strings.Repeat(" || a fi", n) }},
		{"calls", maxDepth - 1, func(n int) string { return strings.Repeat("id(", n) + "a" + strings.Repeat(")", n) }},
		{"parentheses", 2 * maxDepth, func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }},
	} {
		src := func(n int) string {
			return id + "func f(a: num, g: bool) o: num = begin o = " + c.expr(n) + "; end"
		}
		if _, err := Compile(src(c.limit)); err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		}
		funcs, err := ParseFile(src(c.limit))
		if err != nil {
			t.Fatalf("%s at the bound: %v", c.name, err)
		}
		if _, err := Parse(funcs[1].String()); err != nil {
			t.Errorf("%s at the bound: printed form does not parse: %v", c.name, err)
		}
		for _, n := range []int{c.limit + 1, 100_000} {
			_, err := Compile(src(n))
			var perr *Error
			if !errors.As(err, &perr) || perr.Pos.Line != 2 || !strings.Contains(perr.Msg, "nested deeper than") {
				t.Errorf("%s %d deep: err = %v, want a depth error on line 2", c.name, n, err)
			}
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	f1, err := Parse(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := f1.String()
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of printed source failed: %v\n%s", err, printed)
	}
	if f1.String() != f2.String() {
		t.Errorf("round trip not a fixpoint:\n%s\nvs\n%s", f1.String(), f2.String())
	}
}

func TestElaborateAbsDiff(t *testing.T) {
	d, err := Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	st, err := g.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CriticalPath != 2 {
		t.Errorf("cp = %d, want 2", st.CriticalPath)
	}
	if st.Count[cdfg.ClassMux] != 1 || st.Count[cdfg.ClassComp] != 1 || st.Count[cdfg.ClassSub] != 2 {
		t.Errorf("stats = %v", st)
	}
	if d.Width != 8 {
		t.Errorf("width = %d, want 8", d.Width)
	}
	if len(g.Outputs()) != 1 {
		t.Fatalf("outputs = %d, want 1", len(g.Outputs()))
	}
	out := g.Node(g.Outputs()[0])
	if PortName(out.Name) != "out" {
		t.Errorf("output port = %q, want out", PortName(out.Name))
	}
	mux := g.Node(out.Args[0])
	if mux.Kind != cdfg.KindMux || mux.Name != "out" {
		t.Errorf("output fed by %s %q, want mux out", mux.Kind, mux.Name)
	}
}

func TestElaborateConstantsDeduped(t *testing.T) {
	d, err := Compile("func t(a: num) o: num = begin x = a + 5; y = a - 5; o = x * y; end")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Graph.Consts()); n != 1 {
		t.Errorf("constants = %d, want 1 (deduped)", n)
	}
}

func TestElaborateAlias(t *testing.T) {
	d, err := Compile("func t(a: num) o: num = begin x = a; o = x + 1; end")
	if err != nil {
		t.Fatal(err)
	}
	// x is an alias of input a: the adder reads the input directly.
	add := d.Graph.Node(d.Graph.Lookup("o"))
	if add.Kind != cdfg.KindAdd {
		t.Fatalf("o is %v", add.Kind)
	}
	if d.Graph.Node(add.Args[0]).Kind != cdfg.KindInput {
		t.Error("alias did not resolve to the input node")
	}
}

func TestElaborateUnaryMinus(t *testing.T) {
	d, err := Compile("func t(a: num) o: num = begin o = -a; end")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := d.Graph.ComputeStats()
	if st.Count[cdfg.ClassSub] != 1 {
		t.Errorf("negation should elaborate to one subtraction, got %v", st)
	}
}

func TestElaborateBoolPlumbing(t *testing.T) {
	src := `func t(a: num, b: num) o: bool =
begin
    g1 = a > b;
    g2 = !(a == b);
    o  = g1 & g2 | a < b;
end`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := d.Graph.ComputeStats()
	if st.Count[cdfg.ClassComp] != 3 || st.Count[cdfg.ClassLogic] != 3 {
		t.Errorf("stats = %v, want 3 comps and 3 logic ops", st)
	}
}

func TestElaborateIfOverBools(t *testing.T) {
	src := `func t(a: num, b: num) o: bool =
begin
    g  = a > b;
    h1 = a == b;
    h2 = a != b;
    o  = if g -> h1 || h2 fi;
end`
	if _, err := Compile(src); err != nil {
		t.Errorf("bool-branch if rejected: %v", err)
	}
}

func TestElaborateWidthSelection(t *testing.T) {
	d, err := Compile("func t(a: num<12>, b: num<4>) o: num<8> = begin o = a + b; end")
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 12 {
		t.Errorf("width = %d, want 12 (max)", d.Width)
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undefined", "func t(a: num) o: num = begin o = a + zz; end"},
		{"reassign", "func t(a: num) o: num = begin x = a + 1; x = a + 2; o = x; end"},
		{"assign to param", "func t(a: num) o: num = begin a = a + 1; o = a; end"},
		{"dup param", "func t(a: num, a: num) o: num = begin o = a; end"},
		{"missing result", "func t(a: num) o: num = begin x = a + 1; end"},
		{"result type mismatch", "func t(a: num) o: num = begin o = a > 0; end"},
		{"bool arith", "func t(a: num) o: num = begin g = a > 0; o = g + 1; end"},
		{"num not", "func t(a: num) o: bool = begin o = !a; end"},
		{"bool compare", "func t(a: num) o: bool = begin g = a > 0; h = a < 0; o = g > h; end"},
		{"non-bool cond", "func t(a: num) o: num = begin o = if a -> a || a fi; end"},
		{"mixed if branches", "func t(a: num) o: num = begin g = a > 0; o = if g -> a || g fi; end"},
		{"negate bool", "func t(a: num) o: num = begin g = a > 0; o = -g; end"},
		{"shift bool", "func t(a: num) o: num = begin g = a > 0; o = g >> 1; end"},
		{"and on num", "func t(a: num, b: num) o: bool = begin o = a & b; end"},
		{"undefined alias", "func t(a: num) o: num = begin x = zz; o = a; end"},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestElaborateGraphValidates(t *testing.T) {
	d, err := Compile(absDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Graph.Validate(); err != nil {
		t.Errorf("elaborated graph invalid: %v", err)
	}
}

func TestMustHelpers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on bad source")
		}
	}()
	MustCompile("not a program")
}

func TestMustParseOK(t *testing.T) {
	f := MustParse(absDiffSrc)
	if f.Name != "absdiff" {
		t.Error("MustParse wrong result")
	}
}

func TestTypeString(t *testing.T) {
	if (Type{Bool: true}).String() != "bool" {
		t.Error("bool type string")
	}
	if (Type{Width: 8}).String() != "num" {
		t.Error("default num should print as num")
	}
	if (Type{Width: 16}).String() != "num<16>" {
		t.Error("num<16> string")
	}
}

func TestTokenStrings(t *testing.T) {
	if TokIdent.String() == "" || TokKind(99).String() == "" {
		t.Error("TokKind strings")
	}
	tok := Token{Kind: TokInt, Int: 7}
	if !strings.Contains(tok.String(), "7") {
		t.Error("int token string")
	}
	if (Token{Kind: TokEOF}).String() != "end of input" {
		t.Error("eof token string")
	}
}

// TestCompileLargerProgram exercises a realistic multi-conditional source.
func TestCompileLargerProgram(t *testing.T) {
	src := `
func vend(amt: num<8>, price: num<8>, coin: num<8>) disp: num<8>, chg: num<8> =
begin
    enough = amt >= price;
    ch     = amt - price;
    acc    = amt + coin;
    big    = ch > 10;
    c10    = ch * 3;
    base   = if big -> c10 || ch fi;
    disp   = if enough -> base || acc fi;
    chg    = if enough -> ch || acc fi;
end
`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := d.Graph.ComputeStats()
	if st.Count[cdfg.ClassMux] != 3 {
		t.Errorf("muxes = %d, want 3", st.Count[cdfg.ClassMux])
	}
	if st.Count[cdfg.ClassMul] != 1 {
		t.Errorf("muls = %d, want 1", st.Count[cdfg.ClassMul])
	}
	if len(d.Graph.Outputs()) != 2 {
		t.Errorf("outputs = %d, want 2", len(d.Graph.Outputs()))
	}
}

// TestLargeSourceLeavesNoIdleState compiles a source longer than
// maxKeptSource and checks that no idle compile state kept blocks sized
// for it: clearing does not shrink a block, so a kept state would hold
// that memory for the life of the process.
func TestLargeSourceLeavesNoIdleState(t *testing.T) {
	const stmts = 20000
	var b strings.Builder
	b.WriteString("func f(a: num) o: num = begin ")
	for i := range stmts {
		fmt.Fprintf(&b, "x%d = a; ", i)
	}
	b.WriteString("o = a; end")
	if b.Len() <= maxKeptSource {
		t.Fatalf("source of %d bytes is not over the %d-byte bound", b.Len(), maxKeptSource)
	}
	if _, err := Compile(b.String()); err != nil {
		t.Fatal(err)
	}
	var idle []*compileState
	defer func() {
		for _, s := range idle {
			compiles.Put(s)
		}
	}()
	for range scratch.Bound {
		s := compiles.Get()
		idle = append(idle, s)
		held := 0
		for _, a := range s.mem.assigns.arrays {
			held += len(a)
		}
		if held >= stmts {
			t.Fatalf("an idle state holds room for %d assignments", held)
		}
	}
}
