package client_test

import (
	"go/build"
	"testing"
)

// TestImportsOnlyStandardLibrary: pmsynthd's server and job manager
// encode this package's types, so both import it, and SDK users import it
// without the synthesis engine. Anything outside the standard library
// imported here would reach every SDK user's build.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg.Imports {
		dep, err := build.Import(path, pkg.Dir, build.FindOnly)
		if err != nil || !dep.Goroot {
			t.Errorf("client imports %q, which is not in the standard library", path)
		}
	}
}
