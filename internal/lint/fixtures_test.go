package lint

// The fixture harness. Fixture packages live in testdata/src/<path> and
// annotate the lines that must produce findings with
//
//	// want "regex"
//
// comments; the regex is matched against the "[check] message" rendering
// of a finding on that line. Every want must be matched by a finding and
// every finding must be matched by a want — extra findings are as much a
// test failure as missing ones.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixturePackages lists every on-disk fixture, registered once on the
// shared loader so the standard library is type-checked a single time
// per test process.
var fixturePackages = []string{
	"determfix", "lockwork", "lockstore", "lockfix", "locklog", "faketel", "spanfix", "dirfix",
}

var sharedLoader struct {
	once sync.Once
	l    *Loader
}

// fixtureLoader returns the process-wide loader with every fixture
// directory registered. Mutation tests add in-memory packages to it
// under fresh import paths.
func fixtureLoader() *Loader {
	sharedLoader.once.Do(func() {
		l := NewLoader()
		for _, p := range fixturePackages {
			l.AddDir(p, filepath.Join("testdata", "src", p))
		}
		sharedLoader.l = l
	})
	return sharedLoader.l
}

// lintFixture lints one fixture package with the given config on the
// shared loader.
func lintFixture(t *testing.T, cfg Config, path string) []Finding {
	t.Helper()
	r := &Runner{Loader: fixtureLoader(), Config: cfg}
	findings, err := r.Lint(path)
	if err != nil {
		t.Fatalf("lint %s: %v", path, err)
	}
	return findings
}

// expectation is one parsed want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantsOf parses the want comments out of a fixture source file.
func wantsOf(t *testing.T, file string) []expectation {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var out []expectation
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, `// want "`)
		if !ok {
			continue
		}
		pat, ok := strings.CutSuffix(strings.TrimRight(rest, " \t"), `"`)
		if !ok {
			t.Fatalf("%s:%d: malformed want comment", file, i+1)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp: %v", file, i+1, err)
		}
		out = append(out, expectation{file: file, line: i + 1, re: re})
	}
	return out
}

// matchWants cross-checks findings against the want comments of the
// fixture's source files.
func matchWants(t *testing.T, findings []Finding, files ...string) {
	t.Helper()
	var wants []expectation
	for _, f := range files {
		wants = append(wants, wantsOf(t, f)...)
	}
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if f.File == w.file && f.Line == w.line && w.re.MatchString(rendered(f)) {
				matched[i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("%s:%d: want %q matched no finding", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// rendered is the string the want regexps match against.
func rendered(f Finding) string {
	return fmt.Sprintf("[%s] %s", f.Check, f.Message)
}

// fixtureSource reads a fixture file's text for mutation tests.
func fixtureSource(t *testing.T, pkg string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", pkg, pkg+".go"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return string(data)
}

// mutate applies one textual edit that must change the source.
func mutate(t *testing.T, src, old, new string) string {
	t.Helper()
	out := strings.Replace(src, old, new, 1)
	if out == src {
		t.Fatalf("mutation %q not found in fixture", old)
	}
	return out
}

// lintInMemory registers src as a single-file package under path on the
// shared loader and lints it.
func lintInMemory(t *testing.T, cfg Config, path, src string) []Finding {
	t.Helper()
	l := fixtureLoader()
	l.AddSource(path, map[string]string{path + ".go": src})
	r := &Runner{Loader: l, Config: cfg}
	findings, err := r.Lint(path)
	if err != nil {
		t.Fatalf("lint %s: %v", path, err)
	}
	return findings
}
