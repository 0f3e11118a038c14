package silage_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/silage"
)

var update = flag.Bool("update", false, "rewrite compile.golden with the current front end's output")

// source is one input of the front-end golden.
type source struct{ label, src string }

// tempNameSources declare a signal spelled like a compiler temporary:
// one after the temporary's number is taken, one before the temporary
// is made.
var tempNameSources = []source{
	{"temp-name/declared-first", "func f(a: num, b: num) o: num = begin _t3 = a + b; o = (a + b) * a; end"},
	{"temp-name/declared-after", "func f(a: num, b: num) o: num = begin x = (a + b) * a; _t1 = a - b; o = x + _t1; end"},
}

// goldenSources lists every source TestCompileGolden pins: the built-in
// circuits, the committed FuzzCompile corpus, the sources of
// TestRejectedSourceErrors, the temporary-name sources, and 200 generated
// sources in each configuration the benchmark's sweep workloads send.
func goldenSources(t testing.TB) []source {
	t.Helper()
	var out []source
	for _, c := range append(append(bench.All(), bench.AbsDiff()), bench.Extras()...) {
		out = append(out, source{"bench/" + c.Name, c.Source})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCompile")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		src, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, source{"fuzz/" + e.Name(), src})
	}
	out = append(out, rejectedSources(t)...)
	out = append(out, tempNameSources...)
	datapath := gen.Default()
	datapath.Ops, datapath.MuxFanIn = 150, 1
	control := gen.Default()
	control.Ops = 20
	for _, cfg := range []struct {
		name string
		cfg  gen.Config
	}{{"default", gen.Default()}, {"datapath", datapath}, {"control", control}} {
		for seed := int64(1); seed <= 200; seed++ {
			out = append(out, source{fmt.Sprintf("gen/%s/%d", cfg.name, seed), gen.Source(seed, cfg.cfg)})
		}
	}
	return out
}

// rejectedSources reads the cases of TestRejectedSourceErrors out of
// errors_test.go, so the golden covers exactly the sources that test pins.
func rejectedSources(t testing.TB) []source {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "errors_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []source
	ast.Inspect(f, func(n ast.Node) bool {
		c, ok := n.(*ast.CompositeLit)
		if !ok || c.Type != nil || len(c.Elts) != 4 {
			return true
		}
		var s [2]string
		for i := range s {
			lit, ok := c.Elts[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s[i], err = strconv.Unquote(lit.Value); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, source{"rejected/" + strings.ReplaceAll(s[0], " ", "-"), s[1]})
		return false
	})
	if len(out) == 0 {
		t.Fatal("no cases found in errors_test.go")
	}
	return out
}

// outcome is what Compile decides for src: a SHA-256 over every node's ID,
// kind, name, arguments, value and shift, the input, constant and output
// lists and the width, or the error text.
func outcome(src string) string { return describe(silage.Compile(src)) }

func describe(d *silage.Design, err error) string {
	if err != nil {
		return "error " + strconv.Quote(err.Error())
	}
	return digest(d)
}

func digest(d *silage.Design) string {
	h := sha256.New()
	g := d.Graph
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "%d %d %q %v %d %d\n", n.ID, n.Kind, n.Name, n.Args, n.Value, n.Shift)
	}
	fmt.Fprintf(h, "inputs %v consts %v outputs %v width %d\n", g.Inputs(), g.Consts(), g.Outputs(), d.Width)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileGolden pins what the front end makes of every golden source,
// node by node. An intentional change is re-pinned with
//
//	go test ./internal/silage -run CompileGolden -update
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range goldenSources(t) {
		fmt.Fprintf(&b, "%s %s\n", s.label, outcome(s.src))
	}
	path := filepath.Join("testdata", "compile.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got)-1, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("compile drifted:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}
