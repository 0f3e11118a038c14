package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func lockConfig(pkgs ...string) Config {
	return Config{
		Checks:             []string{CheckLockScope},
		LockScopePackages:  pkgs,
		ForbiddenUnderLock: []string{"lockwork.*", "lockstore.Store.Put"},
	}
}

func TestLockScopeFixture(t *testing.T) {
	findings := lintFixture(t, lockConfig("lockfix"), "lockfix")
	matchWants(t, findings, filepath.Join("testdata", "src", "lockfix", "lockfix.go"))
}

// TestLockScopeLogFixture: under the repository's default patterns a
// log/slog call while a mutex is held is a finding, direct or through a
// helper, and logging after the release is not.
func TestLockScopeLogFixture(t *testing.T) {
	cfg := lockConfig("locklog")
	cfg.ForbiddenUnderLock = DefaultConfig("m").ForbiddenUnderLock
	findings := lintFixture(t, cfg, "locklog")
	matchWants(t, findings, filepath.Join("testdata", "src", "locklog", "locklog.go"))
}

// TestLockScopeUnlockDeletionFires is the seeded mutation of the
// acceptance criteria: removing the Unlock between the state copy and
// the compile call stretches the critical section over the compiler,
// and the check must fire.
func TestLockScopeUnlockDeletionFires(t *testing.T) {
	src := fixtureSource(t, "lockfix")
	base := lintFixture(t, lockConfig("lockfix"), "lockfix")

	mutated := mutate(t, src,
		"\tn := s.last\n\ts.mu.Unlock()\n\treturn n + lockwork.Compile(src)\n",
		"\tn := s.last\n\treturn n + lockwork.Compile(src)\n")
	got := lintInMemory(t, lockConfig("lockmut"), "lockmut", mutated)

	if len(got) != len(base)+1 {
		t.Fatalf("unlock deletion: got %d findings, want %d (base) + 1", len(got), len(base))
	}
	extra := 0
	for _, f := range got {
		if f.File == "lockmut.go" && strings.Contains(f.Message, "lockwork.Compile called while holding s.mu") {
			extra++
		}
	}
	// Direct and MaybeHeld already hold s.mu over Compile; the
	// no-longer-released Release is the third.
	if extra != 3 {
		t.Fatalf("unlock deletion: %d 'Compile while holding s.mu' findings, want 3:\n%v", extra, got)
	}
}

// TestLockScopePackageScoping: the same source outside the lock-scope
// list produces nothing.
func TestLockScopePackageScoping(t *testing.T) {
	findings := lintFixture(t, lockConfig("someotherpkg"), "lockfix")
	if len(findings) != 0 {
		t.Fatalf("lockfix outside the lock-scope list: got %d findings, want 0", len(findings))
	}
}
