package silage

import "testing"

// TestRejectedSourceErrors pins the text of the front end's errors on
// rejected sources, for Compile and for Parse: end of input reports at the
// last token (1:1 when there is none), and a lexical error anywhere in the
// input outranks a parse error before it.
func TestRejectedSourceErrors(t *testing.T) {
	for _, c := range []struct {
		name, src string
		compile   string
		parse     string // "" when Parse accepts the source
	}{
		{"empty input", "",
			`silage:1:1: no function declarations`,
			`silage:1:1: expected "func", found end of input`},
		{"comment only", "# comment only\n",
			`silage:1:1: no function declarations`,
			`silage:1:1: expected "func", found end of input`},
		{"whitespace only", "  \n\t\n",
			`silage:1:1: no function declarations`,
			`silage:1:1: expected "func", found end of input`},
		{"end of input mid declaration", "func f(a: num) o: num = begin o = a +",
			`silage:1:37: expected expression, found end of input`,
			`silage:1:37: expected expression, found end of input`},
		{"end of input after open paren", "func f(",
			`silage:1:7: expected identifier, found end of input`,
			`silage:1:7: expected identifier, found end of input`},
		{"end of input after func", "func",
			`silage:1:1: expected identifier, found end of input`,
			`silage:1:1: expected identifier, found end of input`},
		{"end of input mid if", "func f(a: num) o: num = begin o = if a > 1 -> 1 || 2",
			`silage:1:52: expected "fi", found end of input`,
			`silage:1:52: expected "fi", found end of input`},
		{"missing end", "func f(a: num) o: num = begin o = a;\n",
			`silage:1:36: missing "end"`,
			`silage:1:36: missing "end"`},
		{"no func keyword", "begin end",
			`silage:1:1: expected "func", found "begin"`,
			`silage:1:1: expected "func", found "begin"`},
		{"parse error then dollar", "func f(a: num) o: num = begin o = ; end\n$",
			`silage:2:1: unexpected character "$"`,
			`silage:2:1: unexpected character "$"`},
		{"parse error then out-of-range integer", "func f(a: num) o: num = begin o = ; x = 99999999999999999999; end",
			`silage:1:41: integer literal "99999999999999999999" out of range`,
			`silage:1:41: integer literal "99999999999999999999" out of range`},
		{"dollar after a complete function", "func f(a: num) o: num = begin o = a; end $",
			`silage:1:42: unexpected character "$"`,
			`silage:1:42: unexpected character "$"`},
		{"dollar before a parse error", "func f(a: num) o: num = begin o = a $ ; end",
			`silage:1:37: unexpected character "$"`,
			`silage:1:37: unexpected character "$"`},
		{"two lexical errors", "func f(a: num) o: num = begin o = a @ 1 $ 2; end",
			`silage:1:37: unexpected character "@"`,
			`silage:1:37: unexpected character "@"`},
		{"lexical error first", "$ func",
			`silage:1:1: unexpected character "$"`,
			`silage:1:1: unexpected character "$"`},
		{"out-of-range integer", "func f(a: num) o: num = begin o = a + 99999999999999999999; end",
			`silage:1:39: integer literal "99999999999999999999" out of range`,
			`silage:1:39: integer literal "99999999999999999999" out of range`},
		{"commented dollar", "func f(a: num) o: num = begin o = ; end # $",
			`silage:1:35: expected expression, found ";"`,
			`silage:1:35: expected expression, found ";"`},
		{"width out of range", "func f(a: num<65>) o: num = begin o = a; end",
			`silage:1:15: width 65 outside [1,64]`,
			`silage:1:15: width 65 outside [1,64]`},
		{"shift by a signal", "func f(a: num, b: num) o: num = begin o = a << b; end",
			`silage:1:48: shift amount must be an integer literal, found "b"`,
			`silage:1:48: shift amount must be an integer literal, found "b"`},
		{"trailing tokens", "func f(a: num) o: num = begin o = a; end extra",
			`silage:1:42: expected "func", found "extra"`,
			`silage:1:42: unexpected "extra" after function end`},
		{"result type mismatch", "func f(a: num) o: bool = begin o = a + 1; end",
			`silage:1:16: result "o" declared bool but assigned num`,
			``},
		{"undefined signal", "func f(a: num) o: num = begin o = b + 1; end",
			`silage:1:35: undefined signal "b"`,
			``},
		{"duplicate function", "func f(a: num) o: num = begin o = a; end\nfunc f(a: num) o: num = begin o = a; end",
			`silage:2:1: duplicate function "f"`,
			`silage:2:1: unexpected "func" after function end`},
		{"recursive call", "func g(a: num) o: num = begin o = g(a); end\nfunc f(a: num) o: num = begin o = g(a); end",
			`silage:1:35: recursive call to "g"`,
			`silage:2:1: unexpected "func" after function end`},
	} {
		if _, err := Compile(c.src); err == nil || err.Error() != c.compile {
			t.Errorf("%s: Compile error = %v, want %s", c.name, err, c.compile)
		}
		_, err := Parse(c.src)
		switch {
		case c.parse == "" && err != nil:
			t.Errorf("%s: Parse error = %v, want none", c.name, err)
		case c.parse != "" && (err == nil || err.Error() != c.parse):
			t.Errorf("%s: Parse error = %v, want %s", c.name, err, c.parse)
		}
	}
}
