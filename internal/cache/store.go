package cache

// The disk tier of the serving layer: a content-addressed store that
// persists values as atomically written, checksummed files so a restarted
// pmsynthd can serve warm hits without recomputing. The serving layer
// consults it only when no live job answers a submission.
//
// Durability contract:
//
//   - A Put is atomic: the value is written to a temporary file in the
//     same directory and renamed into place. A crash mid-write leaves a
//     tmp-* file that the next Open deletes; it can never leave a
//     half-written entry under a live name.
//   - A Get verifies the file's magic, its recorded key and payload
//     length, and a SHA-256 checksum of the payload before returning it.
//     Any mismatch — truncation, corruption, a stale format — degrades to
//     a miss and the bad file is removed. Corruption is never an error
//     and never a wrong result.
//   - The store is size-bounded: when the resident bytes exceed the
//     configured budget, the least recently used entries are deleted
//     until the store fits. A Get racing a concurrent GC of the same
//     entry degrades to a miss.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// storeMagic brands every entry file; bump the digit on any format change
// so older daemons' files read as corrupt (a miss), never as wrong data.
const storeMagic = "pmstore1"

// storeSuffix names entry files; everything else in the directory is
// ignored (and tmp-* leftovers are collected at Open).
const storeSuffix = ".pmr"

// StoreStats is a point-in-time snapshot of the disk-tier counters.
type StoreStats struct {
	// Hits counts Gets answered from a verified file.
	Hits int64
	// Misses counts Gets that found no usable entry.
	Misses int64
	// Puts counts successful writes.
	Puts int64
	// PutErrors counts writes that failed (disk full, permissions).
	PutErrors int64
	// Corrupt counts files rejected by verification and removed.
	Corrupt int64
	// Evictions counts entries removed by the size-bound GC.
	Evictions int64
	// Bytes is the resident payload+header size across entries.
	Bytes int64
	// Entries is the current number of resident files.
	Entries int64
}

// storeEntry is the in-memory accounting record of one resident file.
type storeEntry struct {
	size     int64
	lastUsed time.Time
}

// Store is the disk-backed content-addressed tier. Keys are arbitrary
// strings (the serving layer uses fingerprints plus view qualifiers);
// values are opaque byte slices the caller serializes. Safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	// lockFile is the flock handle serializing rename-into-place against
	// identity-checked removals across *processes*. s.mu gives the same
	// atomicity within one process; when several daemons share the
	// directory (the cluster's shared store), only an OS-level lock can
	// keep one process's corrupt-cleanup or GC unlink from deleting a
	// file another process just renamed into place. Lock ordering is
	// always s.mu before the flock, and both are held only around
	// stat/rename/remove syscalls — never around reads, writes or
	// client-controlled work.
	lockFile *os.File

	mu      sync.Mutex
	entries map[string]*storeEntry // file base name -> accounting
	bytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	putErrors atomic.Int64
	corrupt   atomic.Int64
	evictions atomic.Int64
}

// OpenStore opens (creating if needed) a store rooted at dir, bounded to
// maxBytes on disk (<= 0 means unbounded). It scans the directory to
// rebuild size accounting, deletes tmp-* leftovers from crashed writes,
// and GCs immediately if the resident set already exceeds the bound.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: store dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: store dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*storeEntry),
	}
	lockFile, err := os.OpenFile(filepath.Join(dir, ".pmstore.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: store lock: %w", err)
	}
	s.lockFile = lockFile
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, "tmp-") {
			// A crashed Put's leftover — but only when it is old enough to
			// be certainly dead. Another *live* process sharing this
			// directory may be mid-Put right now; deleting its temp file
			// would fail that write for no reason.
			if info, ierr := d.Info(); ierr == nil && time.Since(info.ModTime()) > staleTmpAge {
				os.Remove(path)
			}
			return nil
		}
		if !strings.HasSuffix(name, storeSuffix) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced a concurrent delete; skip
		}
		s.entries[name] = &storeEntry{size: info.Size(), lastUsed: info.ModTime()}
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cache: store scan: %w", err)
	}
	s.mu.Lock()
	victims := s.gcLocked()
	s.mu.Unlock()
	s.unlinkEvicted(victims)
	return s, nil
}

// staleTmpAge is how old a tmp-* leftover must be before Open collects
// it. Any live writer renames or removes its temp file within seconds;
// minutes-old temp files can only be crash debris.
const staleTmpAge = 15 * time.Minute

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the cross-process lock handle. Gets and Puts issued
// after Close still work but fall back to in-process exclusion only.
func (s *Store) Close() error {
	if s.lockFile == nil {
		return nil
	}
	err := s.lockFile.Close()
	s.lockFile = nil
	return err
}

// dirLock takes the cross-process directory lock (blocking). Best
// effort: if flock fails (exotic filesystem, closed handle) the store
// degrades to in-process exclusion — exactly the pre-flock behavior —
// rather than failing the operation.
func (s *Store) dirLock() {
	if s.lockFile == nil {
		return
	}
	for {
		err := syscall.Flock(int(s.lockFile.Fd()), syscall.LOCK_EX)
		if !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// dirUnlock releases the cross-process directory lock.
func (s *Store) dirUnlock() {
	if s.lockFile == nil {
		return
	}
	syscall.Flock(int(s.lockFile.Fd()), syscall.LOCK_UN)
}

// fileName maps a key to its entry file base name. Keys are rehashed so
// arbitrary key strings (fingerprints with view qualifiers) become fixed,
// path-safe names; the key itself is recorded inside the file and
// verified on read, so a hash collision reads as corruption, not as a
// wrong value.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + storeSuffix
}

// shardDir spreads entries over 256 subdirectories so no single directory
// grows unboundedly.
func (s *Store) shardDir(name string) string {
	return filepath.Join(s.dir, name[:2])
}

// Get returns the stored value for key. ok is false on any miss — absent,
// truncated, corrupt, or concurrently evicted — never an error the caller
// must handle: the disk tier degrades, it does not fail.
func (s *Store) Get(key string) (val []byte, ok bool) {
	name := fileName(key)
	path := filepath.Join(s.shardDir(name), name)
	val, observed, err := readEntry(path, key)
	if err != nil {
		if !os.IsNotExist(err) {
			// The file exists but cannot be trusted; drop it so the next
			// request recomputes instead of re-verifying garbage.
			s.corrupt.Add(1)
			s.removeCorrupt(name, path, observed)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.touch(name, path)
	return val, true
}

// GetCtx is Get with telemetry: when ctx carries a trace, the lookup
// records a "store.get" span annotated hit=true/false. With tracing off
// it is exactly Get — the span path allocates nothing.
func (s *Store) GetCtx(ctx context.Context, key string) (val []byte, ok bool) {
	_, sp := telemetry.StartSpan(ctx, "store.get")
	val, ok = s.Get(key)
	if sp != nil {
		sp.SetAttr("hit", strconv.FormatBool(ok))
		sp.End()
	}
	return val, ok
}

// PutCtx is Put with telemetry: a "store.put" span records the write
// (err attr on failure). With tracing off it is exactly Put.
func (s *Store) PutCtx(ctx context.Context, key string, val []byte) error {
	_, sp := telemetry.StartSpan(ctx, "store.put")
	err := s.Put(key, val)
	if sp != nil {
		if err != nil {
			sp.SetAttr("err", err.Error())
		}
		sp.End()
	}
	return err
}

// touch refreshes an entry's LRU position. Best effort: the mtime bump
// keeps recency across restarts, the in-memory record keeps it exact
// within one process lifetime.
func (s *Store) touch(name, path string) {
	now := time.Now()
	os.Chtimes(path, now, now)
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		e.lastUsed = now
	}
	s.mu.Unlock()
}

// Put writes the value for key atomically: temp file, checksum, rename.
// An existing entry is replaced. Put failures are counted and returned,
// but callers treat the store as advisory — a failed Put only costs a
// future recompute.
func (s *Store) Put(key string, val []byte) error {
	name := fileName(key)
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: %w", err)
	}
	blob := encodeEntry(key, val)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(blob)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: %w", werr)
	}
	// The rename happens under s.mu — and under the cross-process flock —
	// so it is atomic with respect to removeCorrupt's identity check in
	// this process and in every other process sharing the directory: a
	// reader that just failed to verify the *old* file can never delete
	// the fresh one.
	size := int64(len(blob))
	s.mu.Lock()
	s.dirLock()
	werr = os.Rename(tmpName, filepath.Join(dir, name))
	s.dirUnlock()
	if werr != nil {
		s.mu.Unlock()
		os.Remove(tmpName)
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: %w", werr)
	}
	if e, ok := s.entries[name]; ok {
		s.bytes += size - e.size
		e.size = size
		e.lastUsed = time.Now()
	} else {
		s.entries[name] = &storeEntry{size: size, lastUsed: time.Now()}
		s.bytes += size
	}
	victims := s.gcLocked()
	s.mu.Unlock()
	s.unlinkEvicted(victims)
	s.puts.Add(1)
	return nil
}

// removeCorrupt deletes a file that failed verification, plus its
// accounting record — but only if the on-disk file is still the one the
// reader observed (os.SameFile): a concurrent Put may have renamed a
// fresh, valid entry into place after the bad read, and that write must
// not be lost. Runs under s.mu and the cross-process flock, which Put's
// rename also holds — in this process and in any other daemon sharing
// the store directory.
func (s *Store) removeCorrupt(name, path string, observed os.FileInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirLock()
	defer s.dirUnlock()
	if observed != nil {
		cur, err := os.Lstat(path)
		if err != nil || !os.SameFile(cur, observed) {
			return // gone or replaced: nothing of ours left to clean
		}
	}
	os.Remove(path)
	if e, ok := s.entries[name]; ok {
		s.bytes -= e.size
		delete(s.entries, name)
	}
}

// evictedFile identifies a file selected for eviction while s.mu was
// held: its observed identity lets the deferred unlink skip a file a
// racing Put has since replaced.
type evictedFile struct {
	path string
	info os.FileInfo // nil when the file was already gone at selection
}

// gcLocked selects least-recently-used entries until the store fits its
// byte budget, dropping their accounting records. Called with s.mu held.
// The file unlinks are NOT done here — they are returned for the caller
// to run via unlinkEvicted after releasing the lock, so an eviction
// storm (a restart with a smaller budget, a huge batch) never stalls
// every concurrent Get and Put behind thousands of unlink syscalls.
func (s *Store) gcLocked() []evictedFile {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return nil
	}
	type aged struct {
		name string
		e    *storeEntry
	}
	candidates := make([]aged, 0, len(s.entries))
	for name, e := range s.entries {
		candidates = append(candidates, aged{name, e})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if !candidates[i].e.lastUsed.Equal(candidates[j].e.lastUsed) {
			return candidates[i].e.lastUsed.Before(candidates[j].e.lastUsed)
		}
		return candidates[i].name < candidates[j].name
	})
	var victims []evictedFile
	for _, v := range candidates {
		if s.bytes <= s.maxBytes {
			break
		}
		s.bytes -= v.e.size
		delete(s.entries, v.name)
		path := filepath.Join(s.shardDir(v.name), v.name)
		info, err := os.Lstat(path)
		if err != nil {
			info = nil
		}
		victims = append(victims, evictedFile{path: path, info: info})
		s.evictions.Add(1)
	}
	return victims
}

// unlinkEvicted deletes evicted files one short critical section at a
// time. Each unlink re-takes s.mu plus the cross-process flock and
// re-checks file identity (os.SameFile against what gcLocked observed),
// which is atomic with Put's under-lock rename — in this process and in
// every other process over the same directory — so a key re-Put after
// its eviction keeps its fresh file, and concurrent Gets proceed
// between unlinks.
func (s *Store) unlinkEvicted(victims []evictedFile) {
	for _, v := range victims {
		if v.info == nil {
			continue // already gone when selected
		}
		s.mu.Lock()
		s.dirLock()
		if cur, err := os.Lstat(v.path); err == nil && os.SameFile(cur, v.info) {
			os.Remove(v.path)
		}
		s.dirUnlock()
		s.mu.Unlock()
	}
}

// GC enforces the byte budget immediately (it normally runs inside Put)
// and reports how many entries were evicted.
func (s *Store) GC() int {
	s.mu.Lock()
	victims := s.gcLocked()
	s.mu.Unlock()
	s.unlinkEvicted(victims)
	return len(victims)
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the disk-tier counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	bytes, entries := s.bytes, int64(len(s.entries))
	s.mu.Unlock()
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
		Corrupt:   s.corrupt.Load(),
		Evictions: s.evictions.Load(),
		Bytes:     bytes,
		Entries:   entries,
	}
}

// Entry file layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "pmstore1"
//	8       8     key length K
//	16      K     key bytes
//	16+K    8     payload length N
//	24+K    32    SHA-256(payload)
//	56+K    N     payload
//
// The recorded key closes the (astronomically unlikely) file-name hash
// collision: a mismatched key verifies as corrupt instead of serving a
// value for the wrong request.

// encodeEntry serializes one entry blob.
func encodeEntry(key string, val []byte) []byte {
	sum := sha256.Sum256(val)
	buf := make([]byte, 0, 8+8+len(key)+8+32+len(val))
	buf = append(buf, storeMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(val)))
	buf = append(buf, sum[:]...)
	buf = append(buf, val...)
	return buf
}

// readEntry reads and verifies one entry file, returning the payload and
// the opened file's identity (for removeCorrupt's same-file check).
// os.IsNotExist errors mean a clean miss; every other error means the
// file is present but unusable.
func readEntry(path, key string) ([]byte, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, _ := f.Stat() // nil info just skips the same-file guard
	blob, err := io.ReadAll(f)
	if err != nil {
		return nil, info, fmt.Errorf("cache: store read: %w", err)
	}
	if len(blob) < 8+8 || string(blob[:8]) != storeMagic {
		return nil, info, fmt.Errorf("cache: store entry: bad magic")
	}
	off := 8
	keyLen := binary.BigEndian.Uint64(blob[off : off+8])
	off += 8
	if keyLen > uint64(len(blob)-off) {
		return nil, info, fmt.Errorf("cache: store entry: truncated key")
	}
	if string(blob[off:off+int(keyLen)]) != key {
		return nil, info, fmt.Errorf("cache: store entry: key mismatch")
	}
	off += int(keyLen)
	if len(blob)-off < 8+32 {
		return nil, info, fmt.Errorf("cache: store entry: truncated header")
	}
	valLen := binary.BigEndian.Uint64(blob[off : off+8])
	off += 8
	var want [32]byte
	copy(want[:], blob[off:off+32])
	off += 32
	if valLen != uint64(len(blob)-off) {
		return nil, info, fmt.Errorf("cache: store entry: truncated payload")
	}
	val := blob[off:]
	if sha256.Sum256(val) != want {
		return nil, info, fmt.Errorf("cache: store entry: checksum mismatch")
	}
	return val, info, nil
}
