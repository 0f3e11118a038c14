package lint

import (
	"strings"
	"testing"
)

func TestFindingString(t *testing.T) {
	f := Finding{Check: "determinism", File: "a/b.go", Line: 3, Col: 7, Message: "m"}
	if got, want := f.String(), "a/b.go:3:7: [determinism] m"; got != want {
		t.Fatalf("String: got %q, want %q", got, want)
	}
}

func TestKnownCheck(t *testing.T) {
	for _, c := range AllChecks() {
		if !KnownCheck(c) {
			t.Errorf("KnownCheck(%q) = false", c)
		}
	}
	if KnownCheck("bogus") {
		t.Error(`KnownCheck("bogus") = true`)
	}
}

func TestConfigChecksValidation(t *testing.T) {
	if _, err := (Config{Checks: []string{"bogus"}}).checks(); err == nil {
		t.Error("unknown check accepted")
	}
	got, err := (Config{Checks: []string{CheckSpanPair, CheckDeterminism}}).checks()
	if err != nil {
		t.Fatalf("checks: %v", err)
	}
	// Selection order must not matter: canonical execution order wins.
	if len(got) != 2 || got[0] != CheckDeterminism || got[1] != CheckSpanPair {
		t.Fatalf("checks: got %v, want canonical order", got)
	}
	all, err := (Config{}).checks()
	if err != nil || len(all) != len(AllChecks()) {
		t.Fatalf("empty selection: got %v, %v", all, err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig("m")
	mustContain := func(list []string, want string) {
		t.Helper()
		if !containsPath(list, want) {
			t.Errorf("DefaultConfig missing %q in %v", want, list)
		}
	}
	mustContain(cfg.DeterministicPackages, "m")
	mustContain(cfg.DeterministicPackages, "m/internal/sched")
	mustContain(cfg.DeterministicPackages, "m/internal/flow")
	mustContain(cfg.DeterministicPackages, "m/internal/hdl")
	mustContain(cfg.DeterministicPackages, "m/internal/chip")
	mustContain(cfg.DeterministicPackages, "m/internal/rtl")
	mustContain(cfg.DeterministicPackages, "m/internal/optimal")
	mustContain(cfg.DeterministicPackages, "m/internal/silage")
	mustContain(cfg.DeterministicPackages, "m/internal/bench")
	mustContain(cfg.LockScopePackages, "m/internal/server")
	mustContain(cfg.LockScopePackages, "m/internal/jobs")
	mustContain(cfg.ForbiddenUnderLock, "m.*")
	mustContain(cfg.ForbiddenUnderLock, "m/internal/cache.Store.Put")
	mustContain(cfg.ForbiddenUnderLock, "log/slog.*")
	if cfg.TelemetryPackage != "m/internal/telemetry" {
		t.Errorf("TelemetryPackage = %q", cfg.TelemetryPackage)
	}
}

func TestSelfCheck(t *testing.T) {
	r := &Runner{Config: Config{
		DeterministicPackages: []string{"a", "gone"},
		LockScopePackages:     []string{"b"},
		TelemetryPackage:      "tel",
	}}
	err := r.SelfCheck([]string{"a", "b", "tel"})
	if err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("SelfCheck with a rotted path: err = %v", err)
	}
	r.Config.DeterministicPackages = []string{"a"}
	if err := r.SelfCheck([]string{"a", "b", "tel"}); err != nil {
		t.Fatalf("SelfCheck with a valid config: %v", err)
	}
}

// TestRunnerRootRelativize: findings under Root come out relative, and
// directives keep suppressing against the relativized names.
func TestRunnerRootRelativize(t *testing.T) {
	r := &Runner{Loader: fixtureLoader(), Config: determConfig("determfix"), Root: "testdata"}
	findings, err := r.Lint("determfix")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("expected findings from determfix")
	}
	for _, f := range findings {
		if f.File != "src/determfix/determfix.go" {
			t.Fatalf("finding not relativized against Root: %q", f.File)
		}
	}
}

func TestLintUnknownCheckError(t *testing.T) {
	r := &Runner{Loader: fixtureLoader(), Config: Config{Checks: []string{"bogus"}}}
	if _, err := r.Lint("determfix"); err == nil {
		t.Fatal("Lint with an unknown check: expected error")
	}
}
