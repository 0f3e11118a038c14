package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// recordOf locates key's live record through the store's index: its
// segment file, offset and length.
func recordOf(t *testing.T, s *Store, key string) (path string, off, n int64) {
	t.Helper()
	s.mu.Lock()
	loc, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("%q is not indexed", key)
	}
	return filepath.Join(s.dir, loc.seg.name), loc.off, loc.n
}

// writeAt overwrites bytes of a file in place.
func writeAt(t *testing.T, path string, b []byte, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// dirFiles maps every regular file under dir, by path, to its info, and
// counts the subdirectories.
func dirFiles(t *testing.T, dir string) (files map[string]os.FileInfo, subdirs int) {
	t.Helper()
	files = make(map[string]os.FileInfo)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir {
				subdirs++
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files[path] = info
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, subdirs
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	files, _ := dirFiles(t, dir)
	var total int64
	for _, info := range files {
		total += info.Size()
	}
	return total
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
	// A key too long for a record header to fit the scan buffer is
	// refused.
	if err := s.Put(strings.Repeat("k", maxKeyLen+1), val); err == nil {
		t.Fatal("Put of an oversized key succeeded")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.PutErrors != 1 || st.Entries != 1 {
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

// TestStoreTruncated covers every truncation point of the record format:
// each must degrade to a miss and be forgotten, never panic or return
// data, and a reopened store must not serve it either.
func TestStoreTruncated(t *testing.T) {
	key := "trunc"
	val := []byte("some payload worth keeping")
	n := int64(len(encodeEntry(key, val)))
	for cut := int64(0); cut < n; cut += 7 {
		dir := t.TempDir()
		s, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		path, off, _ := recordOf(t, s, key)
		if err := os.Truncate(path, off+cut); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Fatalf("cut=%d: truncated entry served %q", cut, got)
		}
		// The record is forgotten: a second Get misses without
		// re-verifying it.
		if _, ok := s.Get(key); ok || s.Stats().Corrupt != 1 || s.Len() != 0 {
			t.Fatalf("cut=%d: truncated record not forgotten: %+v", cut, s.Stats())
		}
		s.Close()
		s2, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get(key); ok {
			t.Fatalf("cut=%d: reopened store served %q", cut, got)
		}
		s2.Close()
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
			path, off, n := recordOf(t, s, key)
			blob := make([]byte, n)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.ReadAt(blob, off)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(blob)
			writeAt(t, path, blob, off)
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
			}
			// The record is forgotten: it is never read again.
			if _, ok := s.Get(key); ok || s.Stats().Corrupt != 1 || s.Len() != 0 {
				t.Fatalf("corrupt record not forgotten: %+v", s.Stats())
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
	// Point the index at a record written for a different key: the
	// recorded key must reject it.
	if err := s.Put("other", []byte("value for other")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.setLocked("wanted", s.index["other"])
	s.mu.Unlock()
	if got, ok := s.Get("wanted"); ok {
		t.Fatalf("key-mismatched entry served %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if got, ok := s.Get("other"); !ok || string(got) != "value for other" {
		t.Fatalf("Get(other) = %q, %v", got, ok)
	}
}

// TestStorePartialWriteCrash simulates a writer that died mid-append: the
// half-written record at its segment's tail must never be served, by a
// store open at the time or by one opened afterwards, while the records
// before it still are.
func TestStorePartialWriteCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-plant what the dead writer left behind: a segment holding one
	// whole record and half of the next.
	whole := encodeEntry("written", []byte("whole"))
	half := encodeEntry("crashed", []byte("half"))
	seg := append(whole, half[:len(half)/2]...)
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001"+segmentSuffix), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, reopen(t, dir)} {
		if _, ok := st.Get("crashed"); ok {
			t.Fatal("partial write served")
		}
		if got, ok := st.Get("written"); !ok || string(got) != "whole" {
			t.Fatalf("record before the torn one = %q, %v", got, ok)
		}
		if st.Stats().Corrupt != 0 {
			t.Fatalf("a torn tail is not corruption: %+v", st.Stats())
		}
	}
}

// reopen opens a second, unbounded store over dir, closed with the test.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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
	s1.Close() // the first process exits
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

// waitOldLayout waits until s has finished removing the old layout, if
// its OpenStore started to.
func waitOldLayout(s *Store) {
	if s.cleanDone != nil {
		<-s.cleanDone
	}
}

// TestStoreIgnoresForeignFiles: files that are not segments read as empty
// and survive the store's GC. The one exception is the one-file-per-entry
// layout's .pmr files in two-hex-digit shard directories, which OpenStore
// has deleted in the background, with each shard they leave empty; a
// shard holding anything else keeps it.
func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, d := range []string{"ab", "cd"} {
		if err := os.Mkdir(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	foreign := []string{filepath.Join(dir, "README"), filepath.Join(dir, "cd", "notes")}
	old := []string{filepath.Join(dir, "ab", "ab01.pmr"), filepath.Join(dir, "cd", "cd02.pmr")}
	for _, p := range append(append([]string(nil), foreign...), old...) {
		if err := os.WriteFile(p, encodeEntry("old", []byte("not a segment")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("foreign file indexed: Len = %d", s.Len())
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("an entry outside any segment was served")
	}
	waitOldLayout(s)
	for _, p := range append(old, filepath.Join(dir, "ab")) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("old layout's %s not removed: %v", p, err)
		}
	}
	if err := s.Put("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	s.maxBytes = 1
	if n := s.GC(); n != 1 {
		t.Fatalf("GC = %d, want 1", n)
	}
	for _, p := range foreign {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("foreign file %s not left alone: %v", p, err)
		}
	}
}

// TestStoreConcurrentOpensRemoveOldLayout: stores opening one directory at
// once each try to remove the old layout's files and shards, and each
// opens even when another removed them first.
func TestStoreConcurrentOpensRemoveOldLayout(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 64; i++ {
		shard := filepath.Join(dir, fmt.Sprintf("%02x", i))
		if err := os.Mkdir(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := os.WriteFile(filepath.Join(shard, fmt.Sprintf("%02x%02x.pmr", i, j)), []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	const opens = 4
	stores := make([]*Store, opens)
	errs := make([]error, opens)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = OpenStore(dir, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		waitOldLayout(stores[i])
		stores[i].Close()
	}
	if files, subdirs := dirFiles(t, dir); len(files) != 0 || subdirs != 0 {
		t.Fatalf("old layout left behind: %d files, %d shards", len(files), subdirs)
	}
}

// TestStoreRemovesOldLayoutInTheBackground: OpenStore returns, and its
// store serves, while the old layout's removal is held back; Close stops
// the removal between two files and waits for it; the next open finishes
// it.
func TestStoreRemovesOldLayoutInTheBackground(t *testing.T) {
	dir := t.TempDir()
	var old []string
	for _, shard := range []string{"0a", "0b"} {
		if err := os.Mkdir(filepath.Join(dir, shard), 0o755); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			p := filepath.Join(dir, shard, fmt.Sprintf("%s%02x.pmr", shard, j))
			if err := os.WriteFile(p, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			old = append(old, p)
		}
	}
	held := make(chan struct{})
	calls := 0 // only the removal touches it until Close has waited for it
	s, err := openStore(dir, 0, func(stop <-chan struct{}) {
		calls++
		if calls == 2 {
			close(held)
			<-stop
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-held // one file is gone, and the removal waits before the next
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get while the removal is held = %q, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.cleanDone:
	default:
		t.Fatal("the old layout's removal still runs after Close")
	}
	if calls != 2 {
		t.Fatalf("the removal went on after Close stopped it: %d hook calls, want 2", calls)
	}
	left := 0
	for _, p := range old {
		if _, err := os.Stat(p); err == nil {
			left++
		}
	}
	if left != len(old)-1 {
		t.Fatalf("%d old files left after Close, want %d", left, len(old)-1)
	}

	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitOldLayout(s2)
	if files, subdirs := dirFiles(t, dir); len(files) != 1 || subdirs != 0 {
		t.Fatalf("after a second open: %d files (want the segment alone), %d shards", len(files), subdirs)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
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
// Each runs its own *Store over the same segments: each appends only to
// segments it created, reads the others', and may evict any segment no
// live writer holds. flock is per open file description, so two
// instances in one test process contend exactly like two daemons.

// TestStoreCrossInstanceConcurrency is the cross-process extension of
// TestStoreConcurrentGCvsRead: two Store instances over one directory,
// concurrent Put/Get/GC plus injected corruption, under a byte budget
// tight enough to keep the GC evicting. No reader on either instance
// may ever observe wrong bytes, and after the storm a Put through one
// instance is a hit through the other.
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
	// A corrupter flipping the last payload byte of records on disk:
	// each instance's next Get of a victim must detect it and forget the
	// record, whichever instance wrote it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 60; iter++ {
			key := fmt.Sprintf("key-%02d", iter%keys)
			a.mu.Lock()
			loc, ok := a.index[key]
			a.mu.Unlock()
			if !ok {
				continue
			}
			f, err := os.OpenFile(filepath.Join(dir, loc.seg.name), os.O_RDWR, 0)
			if err != nil {
				continue // evicted
			}
			last := []byte{0}
			if _, err := f.ReadAt(last, loc.off+loc.n-1); err == nil {
				last[0] ^= 0xff
				f.WriteAt(last, loc.off+loc.n-1)
			}
			f.Close()
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

// TestStorePutCreatesNoFilePerEntry: Open creates no file, and every Put
// of an unbounded store appends to the one segment the first Put created.
func TestStorePutCreatesNoFilePerEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if files, subdirs := dirFiles(t, dir); len(files) != 0 || subdirs != 0 {
		t.Fatalf("OpenStore created %d files and %d directories", len(files), subdirs)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	files, subdirs := dirFiles(t, dir)
	if len(files) != 1 || subdirs != 0 {
		t.Fatalf("200 Puts left %d files and %d directories, want one segment", len(files), subdirs)
	}
	for i := 0; i < 200; i++ {
		if got, ok := s.Get(fmt.Sprintf("key-%03d", i)); !ok || string(got) != fmt.Sprintf("value %d", i) {
			t.Fatalf("key-%03d = %q, %v", i, got, ok)
		}
	}
}

// TestStoreGetWritesNothing: a hit, through the writer or through a store
// opened over its directory, and a miss change no file's size or mtime
// and create no file.
func TestStoreGetWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	// Age every file, so a write-back of the time of a read shows.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	before, _ := dirFiles(t, dir)
	for path := range before {
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	before, _ = dirFiles(t, dir)
	for _, st := range []*Store{s, reopen(t, dir)} {
		for i := 0; i < 20; i++ {
			if _, ok := st.Get(fmt.Sprintf("key-%02d", i)); !ok {
				t.Fatalf("key-%02d missed", i)
			}
		}
		if _, ok := st.Get("absent"); ok {
			t.Fatal("absent key hit")
		}
	}
	after, _ := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("Gets changed the file count from %d to %d", len(before), len(after))
	}
	for path, b := range before {
		a, ok := after[path]
		if !ok || a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) {
			t.Fatalf("Gets wrote %s: size %d -> %d, mtime %v -> %v", path, b.Size(), a.Size(), b.ModTime(), a.ModTime())
		}
	}
}

// TestStoreEvictionSparesALiveWriter: two stores share one directory
// under a tight budget. The evicting store's GC deletes the writer's
// sealed segments but never its active one, whose records stay served by
// both; once the writer closes, its last segment is fair game.
func TestStoreEvictionSparesALiveWriter(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("v"), 100)
	entrySize := int64(len(encodeEntry("w-00", val)))
	budget := 40 * entrySize // segments seal at five entries
	evictor, err := OpenStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := OpenStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	put := func(s *Store, key string) {
		t.Helper()
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	served := func(key string) {
		t.Helper()
		for _, s := range []*Store{writer, evictor} {
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("%s through %p = %q, %v", key, s, got, ok)
			}
		}
	}
	// The writer's oldest segment seals; its newest stays active.
	for i := 0; i < 7; i++ {
		put(writer, fmt.Sprintf("w-%02d", i))
	}
	activePath, _, _ := recordOf(t, writer, "w-06")
	served("w-06") // the evictor indexes the writer's segments on its miss

	// The evictor floods the budget, then shrinks it to nothing.
	for i := 0; i < 100; i++ {
		put(evictor, fmt.Sprintf("e-%03d", i))
	}
	evictor.maxBytes = 1
	evictor.GC()
	if st := evictor.Stats(); st.Evictions == 0 {
		t.Fatalf("the evictor evicted nothing: %+v", st)
	}
	if _, ok := evictor.Get("w-00"); ok {
		t.Fatal("the writer's sealed segment survived the evictor's GC")
	}
	if _, err := os.Stat(activePath); err != nil {
		t.Fatalf("the evictor deleted the writer's active segment: %v", err)
	}
	served("w-06")
	put(writer, "w-late")
	served("w-late")

	// Closing seals the writer's segment: now the evictor may take it.
	writer.Close()
	evictor.GC()
	if _, err := os.Stat(activePath); !os.IsNotExist(err) {
		t.Fatalf("a sealed segment survived GC over budget: %v", err)
	}
	if evictor.Len() != 0 {
		t.Fatalf("evictor Len = %d after evicting everything", evictor.Len())
	}
}

// TestStoreTornTail: a segment cut anywhere inside its last record, as a
// writer dying mid-append leaves it, serves every earlier record, misses
// the cut one, and is never appended to by the store that reopens it.
func TestStoreTornTail(t *testing.T) {
	src := t.TempDir()
	w, err := OpenStore(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	for _, k := range keys {
		if err := w.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	path, off, n := recordOf(t, w, "k3")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	for cut := int64(0); cut < n; cut += 5 {
		dir := t.TempDir()
		segPath := filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(segPath, whole[:off+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:3] {
			if got, ok := s.Get(k); !ok || string(got) != "payload of "+k {
				t.Fatalf("cut=%d: %s = %q, %v", cut, k, got, ok)
			}
		}
		if got, ok := s.Get("k3"); ok {
			t.Fatalf("cut=%d: torn record served %q", cut, got)
		}
		if err := s.Put("k4", []byte("after the tear")); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(segPath); err != nil || info.Size() != off+cut {
			t.Fatalf("cut=%d: the reopened store appended to the torn segment", cut)
		}
		if files, _ := dirFiles(t, dir); len(files) != 2 {
			t.Fatalf("cut=%d: %d files, want the torn segment and a new one", cut, len(files))
		}
		s.Close()
		if got, ok := reopen(t, dir).Get("k4"); !ok || string(got) != "after the tear" {
			t.Fatalf("cut=%d: k4 after reopen = %q, %v", cut, got, ok)
		}
	}
}

// TestStoreDiskBound: after many Puts of mixed sizes under budget B, the
// directory holds at most B plus one segment, and the newest entry is
// served.
func TestStoreDiskBound(t *testing.T) {
	dir := t.TempDir()
	const budget = 8 << 10
	s, err := OpenStore(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	var maxRec int64
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i)}, 100+(i*37)%500)
		maxRec = max(maxRec, int64(len(encodeEntry(key, val))))
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got := diskBytes(t, dir); got > budget+s.sealBytes()+maxRec {
			t.Fatalf("after %d Puts the directory holds %d bytes, budget %d", i+1, got, budget)
		}
	}
	if _, ok := s.Get("key-299"); !ok {
		t.Fatal("newest entry evicted")
	}
	if st := s.Stats(); st.Bytes > budget || st.Evictions == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
