// Package locklog is a pmlint fixture for the lockscope check's log
// rule: a log write can block on a full stderr pipe, so no log/slog
// call may run while a mutex is held.
package locklog

import (
	"log/slog"
	"sync"
)

// Table is the fixture's locked type.
type Table struct {
	mu  sync.Mutex
	log *slog.Logger
	n   int
}

// Bump logs through its logger and the default one under the lock.
func (t *Table) Bump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	t.log.Info("bumped", "n", t.n) // want "\[lockscope\] log/slog.Logger.Info called while holding t.mu"
	slog.Warn("bumped")            // want "\[lockscope\] log/slog.Warn called while holding t.mu"
}

// report logs without locking anything itself.
func (t *Table) report(n int) { t.log.Debug("count", "n", n) }

// Report reaches the logger through report while locked; logging after
// the release is the sanctioned shape.
func (t *Table) Report() {
	t.mu.Lock()
	t.report(t.n) // want "\[lockscope\] report can reach log/slog.Logger.Debug while holding t.mu"
	n := t.n
	t.mu.Unlock()
	t.report(n)
	slog.Info("read", "n", n)
}
