package silage

import "testing"

// FuzzCompile drives the whole frontend — lexer, parser, type checker,
// elaborator — with arbitrary inputs. The invariants under test: Compile
// never panics; any design it accepts validates as a well-formed CDFG; and
// whenever LexAll rejects the input, Compile and Parse return LexAll's
// error text, so a lexical error outranks every other.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"func f(a: num) o: num = begin o = a + 1; end",
		"func f(a: num<8>, b: num<8>) o: num<8> = begin g = a > b; o = if g -> a || b fi; end",
		"func f(a: num) o: bool = begin o = !(a == 0) & (a < 9); end",
		"func f(a: num) o: num = begin o = -(a >> 2) * 3; end",
		"func f(", "begin end", "", "func f(a: num) o: num = begin o = ; end",
		"# comment only",
		"func f(a: num<64>) o: num = begin o = a << 63; end",
		"func f(a: num) o: num = begin o = ; end $",
		"func f(a: num) o: num = begin o = ; x = 99999999999999999999; end",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Compile(src)
		if _, lerr := LexAll(src); lerr != nil {
			if err == nil || err.Error() != lerr.Error() {
				t.Errorf("Compile error = %v, want the lexical error %v\nsource: %q", err, lerr, src)
			}
			if _, perr := Parse(src); perr == nil || perr.Error() != lerr.Error() {
				t.Errorf("Parse error = %v, want the lexical error %v\nsource: %q", perr, lerr, src)
			}
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := d.Graph.Validate(); err != nil {
			t.Errorf("accepted design fails validation: %v\nsource: %q", err, src)
		}
		if d.Width < 1 || d.Width > 64 {
			t.Errorf("accepted design has width %d\nsource: %q", d.Width, src)
		}
	})
}

// FuzzPrintParse checks the printer/parser fixpoint on accepted inputs.
func FuzzPrintParse(f *testing.F) {
	f.Add("func f(a: num, b: num) o: num = begin g = a > b; o = if g -> a || b fi; end")
	f.Add("func f(x: num) y: num = begin y = x * x + 1; end")
	f.Fuzz(func(t *testing.T, src string) {
		d1, err := Parse(src)
		if err != nil {
			return
		}
		printed := d1.String()
		d2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form rejected: %v\n%s", err, printed)
		}
		if d2.String() != printed {
			t.Errorf("print/parse not a fixpoint:\n%s\nvs\n%s", printed, d2.String())
		}
	})
}
