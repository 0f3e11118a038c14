package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// entryPath locates the on-disk file for a key through the same mapping
// the store uses.
func entryPath(s *Store, key string) string {
	name := fileName(key)
	return filepath.Join(s.shardDir(name), name)
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("hello sweep table")
	if err := s.Put("k1", val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("key", []byte("survives restart")); err != nil {
		t.Fatal(err)
	}
	// A second store over the same directory — the restarted daemon —
	// serves the entry without any handoff.
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("key")
	if !ok || string(got) != "survives restart" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
}

func TestStoreOverwrite(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "v2 longer" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Accounting must reflect the replacement, not the sum.
	st := s.Stats()
	if st.Bytes != int64(len(encodeEntry("k", []byte("v2 longer")))) {
		t.Fatalf("Bytes = %d after overwrite", st.Bytes)
	}
}

// TestStoreTruncated covers every truncation point of the file format:
// each must degrade to a miss and remove the bad file, never panic or
// return data.
func TestStoreTruncated(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := "trunc"
	val := []byte("some payload worth keeping")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	path := entryPath(s, key)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut += 7 {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Fatalf("cut=%d: truncated entry served %q", cut, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("cut=%d: corrupt file not removed", cut)
		}
	}
}

func TestStoreBadChecksum(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(blob []byte)
	}{
		{"flipped-payload-bit", func(b []byte) { b[len(b)-1] ^= 0xff }},
		// A write lost to a crash can leave an entry of the right length
		// holding only zeros.
		{"zero-filled", func(b []byte) { clear(b) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := "sum"
			if err := s.Put(key, []byte("checksummed payload")); err != nil {
				t.Fatal(err)
			}
			path := entryPath(s, key)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(blob)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt file not removed")
			}
			// A re-Put works and serves again.
			if err := s.Put(key, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "fresh" {
				t.Fatalf("after re-put: %q, %v", got, ok)
			}
		})
	}
}

func TestStoreKeyMismatchReadsAsCorrupt(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a file-name hash collision: entry content recorded for a
	// different key under this key's file name.
	name := fileName("wanted")
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	blob := encodeEntry("other", []byte("value for other"))
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("wanted"); ok {
		t.Fatalf("key-mismatched entry served %q", got)
	}
}

// TestStorePartialWriteCrash simulates a crash between temp-write and
// rename: the leftover tmp file must never be served and must be cleaned
// up by the next Open.
func TestStorePartialWriteCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-plant what a crashed Put leaves behind: a tmp file holding a
	// half-written entry in a shard directory.
	name := fileName("crashed")
	shard := s.shardDir(name)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	blob := encodeEntry("crashed", []byte("half"))
	tmpPath := filepath.Join(shard, "tmp-123456")
	if err := os.WriteFile(tmpPath, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("crashed"); ok {
		t.Fatal("partial write visible under the live name")
	}
	// Age the leftover past staleTmpAge: Open only collects tmp files old
	// enough to be certainly dead, so a sibling daemon's in-flight write
	// over a shared directory is never destroyed.
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(tmpPath, old, old); err != nil {
		t.Fatal(err)
	}
	// Reopen — the janitorial scan removes the leftover.
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatal("tmp leftover survived reopen")
	}
	if _, ok := s2.Get("crashed"); ok {
		t.Fatal("partial write visible after reopen")
	}
}

func TestStoreGCBounded(t *testing.T) {
	entrySize := int64(len(encodeEntry("key-00", bytes.Repeat([]byte("x"), 100))))
	// Budget for three entries.
	s, err := OpenStore(t.TempDir(), 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if err := s.Put(key, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
		// Distinct lastUsed stamps so LRU order is deterministic.
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.Entries > 3 || st.Bytes > 3*entrySize {
		t.Fatalf("GC did not bound the store: %+v", st)
	}
	if st.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", st.Evictions)
	}
	// The most recent entries survive.
	if _, ok := s.Get("key-05"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := s.Get("key-00"); ok {
		t.Fatal("oldest entry survived")
	}
}

func TestStoreOpenGCsOversizedDir(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s1.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("y"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := int64(len(encodeEntry("k0", bytes.Repeat([]byte("y"), 50))))
	s2, err := OpenStore(dir, 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries > 2 {
		t.Fatalf("open did not GC an oversized directory: %+v", st)
	}
}

// TestStoreConcurrentGCvsRead races readers against writers that force
// constant eviction: every Get must be a clean hit or a clean miss —
// never a panic, an error-shaped value, or cross-key data.
func TestStoreConcurrentGCvsRead(t *testing.T) {
	entrySize := int64(len(encodeEntry("key-00", bytes.Repeat([]byte("z"), 64))))
	s, err := OpenStore(t.TempDir(), 4*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (w + iter) % keys
				s.Put(fmt.Sprintf("key-%02d", i), payload(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 400; iter++ {
				i := (r + iter) % keys
				val, ok := s.Get(fmt.Sprintf("key-%02d", i))
				if ok && !bytes.Equal(val, payload(i)) {
					t.Errorf("key-%02d served wrong bytes %q", i, val[:1])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent GC/read produced corrupt reads: %+v", st)
	}
}

func TestStoreOpenEmptyDirErrors(t *testing.T) {
	if _, err := OpenStore("", 0); err == nil {
		t.Fatal("OpenStore(\"\") succeeded")
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("foreign file indexed: Len = %d", s.Len())
	}
	if !strings.HasSuffix(fileName("x"), storeSuffix) {
		t.Fatal("fileName lost its suffix")
	}
}

func TestStoreDirAndExplicitGC(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", s.Dir(), dir)
	}
	// Unbounded store: GC is a no-op.
	if err := s.Put("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if n := s.GC(); n != 0 {
		t.Fatalf("GC on unbounded store evicted %d", n)
	}
	// Shrink the bound below the resident size: explicit GC evicts.
	s.maxBytes = 1
	if n := s.GC(); n != 1 {
		t.Fatalf("GC = %d, want 1", n)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after GC", s.Len())
	}
}

// TestStoreCtxVariants: GetCtx/PutCtx are Get/Put with an optional trace
// span — identical behavior with tracing off, span attrs recorded with
// tracing on.
func TestStoreCtxVariants(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tracing off: plain round trip.
	if err := s.PutCtx(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetCtx(context.Background(), "k"); !ok || string(got) != "v" {
		t.Fatalf("GetCtx = %q, %v", got, ok)
	}

	// Tracing on: one span per call, hit attr reflecting the outcome.
	tr := telemetry.NewTrace("t1")
	ctx := telemetry.WithTrace(context.Background(), tr)
	if err := s.PutCtx(ctx, "k2", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCtx(ctx, "k2"); !ok {
		t.Fatal("GetCtx(k2) miss")
	}
	if _, ok := s.GetCtx(ctx, "absent"); ok {
		t.Fatal("GetCtx(absent) hit")
	}
	snap := tr.Snapshot()
	if snap.Spans != 3 {
		t.Fatalf("spans = %d, want 3", snap.Spans)
	}
	names := map[string]int{}
	for _, n := range snap.Roots {
		names[n.Name]++
	}
	if names["store.put"] != 1 || names["store.get"] != 2 {
		t.Fatalf("span names = %v", names)
	}
}

// --- Cross-process sharing -------------------------------------------
//
// Several pmsynthd nodes point at one store directory in cluster mode.
// Each runs its own *Store over the same files, so the in-process mutex
// no longer serializes rename-into-place against identity-checked
// removals; the flock taken in dirLock must. These tests run two Store
// instances over one directory — flock is per open file description, so
// two instances in one test process contend exactly like two daemons.

func TestStoreCrossProcessLockExcludes(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.dirLock()
	if err := syscall.Flock(int(b.lockFile.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err == nil {
		syscall.Flock(int(b.lockFile.Fd()), syscall.LOCK_UN)
		t.Fatal("second instance acquired the directory lock while the first held it")
	}
	a.dirUnlock()
	if err := syscall.Flock(int(b.lockFile.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatalf("lock not released: %v", err)
	}
	syscall.Flock(int(b.lockFile.Fd()), syscall.LOCK_UN)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close the store degrades to in-process exclusion; operations
	// must still work.
	if err := a.Put("post-close", []byte("v")); err != nil {
		t.Fatalf("Put after Close: %v", err)
	}
	if _, ok := a.Get("post-close"); !ok {
		t.Fatal("Get after Close missed")
	}
	b.Close()
}

// TestStoreCrossInstanceConcurrency is the cross-process extension of
// TestStoreConcurrentGCvsRead: two Store instances over one directory,
// concurrent Put/Get/GC plus injected corruption, under a byte budget
// tight enough to keep the GC evicting. No reader on either instance
// may ever observe wrong bytes, and a corrupt-cleanup on one instance
// must never delete a fresh entry renamed into place by the other.
func TestStoreCrossInstanceConcurrency(t *testing.T) {
	dir := t.TempDir()
	entrySize := int64(len(encodeEntry("key-00", bytes.Repeat([]byte("z"), 64))))
	a, err := OpenStore(dir, 6*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(dir, 6*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{a, b}
	const keys = 12
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := stores[w%2]
			for iter := 0; iter < 150; iter++ {
				i := (w + iter) % keys
				s.Put(fmt.Sprintf("key-%02d", i), payload(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := stores[r%2]
			for iter := 0; iter < 300; iter++ {
				i := (r + iter) % keys
				val, ok := s.Get(fmt.Sprintf("key-%02d", i))
				if ok && !bytes.Equal(val, payload(i)) {
					t.Errorf("key-%02d served wrong bytes %q", i, val[:1])
					return
				}
			}
		}(r)
	}
	// A corrupter flipping payload bytes on disk: each instance's next
	// Get of a victim must detect it, remove the file under the flock,
	// and never take down a fresh entry the other instance just renamed
	// into place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 60; iter++ {
			i := iter % keys
			path := entryPath(a, fmt.Sprintf("key-%02d", i))
			if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
				data[len(data)-1] ^= 0xff
				os.WriteFile(path, data, 0o644)
			}
		}
	}()
	wg.Wait()
	// Settle: after the storm, a fresh Put through either instance must
	// be durable and readable through the other.
	if err := a.Put("settle", []byte("final")); err != nil {
		t.Fatalf("settle Put: %v", err)
	}
	if val, ok := b.Get("settle"); !ok || string(val) != "final" {
		t.Fatalf("cross-instance read after storm: ok=%v val=%q", ok, val)
	}
}

func TestStoreOpenKeepsFreshTmpFiles(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "tmp-live-writer")
	stale := filepath.Join(dir, "tmp-crashed-writer")
	for _, p := range []string{fresh, stale} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(fresh); err != nil {
		t.Fatal("Open deleted a fresh tmp file another live process may own")
	}
	if _, err := os.Lstat(stale); !os.IsNotExist(err) {
		t.Fatal("Open kept a stale crashed-write leftover")
	}
}
