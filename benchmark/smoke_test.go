package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds pmsynthd and runs every workload for 2 seconds, through
// the same invalid-run rules and correctness gate as a full run, then one
// traced run. It takes about a minute, so
// -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pmsynthd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pmsynthd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pmsynthd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/pmsynthd: %v\n%s", err, out)
	}
	smoke := func(name, trace string, want []metric) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", name, "-seconds", "2", "-seed", "3", "-trace", trace,
			"-daemon", bin, "-work", filepath.Join(dir, "work")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s (trace %s): exit %d\n%s", name, trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", name, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Errorf("%s (trace %s): %+v", name, trace, res)
		}
		for _, m := range want {
			if res.Metrics[m.name].Unit != m.unit {
				t.Errorf("%s: metric %s missing or with the wrong unit", name, m.name)
			}
		}
	}
	for _, w := range workloads {
		smoke(w.name, "0", endToEnd)
	}
	smoke("sweep-control", "1", perLayer())
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "store-warm", "-trace", "2"},
		{"-workload", "store-warm", "-seconds", "0"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run %v = %d with output %q, want 2 and none", args, code, stdout.String())
		}
	}
}
