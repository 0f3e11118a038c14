package cache

// The disk tier of the serving layer: a content-addressed store that
// persists values as checksummed records appended to segment files, so a
// restarted pmsynthd can serve warm hits without recomputing. The serving
// layer consults it only when no live job answers a submission.
//
// The layout is Bitcask's (Sheehy and Smith, "Bitcask: A Log-Structured
// Hash Table for Fast Key/Value Data", 2010): each Store appends records
// to a segment file it created, and keeps an in-memory index from key to
// segment, offset and length.
//
// Durability contract:
//
//   - A Put is one append and one fsync to the Store's active segment. A
//     writer that dies mid-append leaves a torn record at its segment's
//     tail. The scan of that segment ends there, and no Store ever appends
//     to a segment it did not create.
//   - A Get is an index lookup and one positioned read. It verifies the
//     record's magic, its recorded key and payload length, and a SHA-256
//     checksum of the payload before returning it. Any mismatch degrades
//     to a miss and the index forgets the record, so it is never served
//     again. Corruption is never an error and never a wrong result. A Get
//     writes nothing.
//   - The store is size-bounded: when its segments exceed the configured
//     budget, whole segments are deleted, oldest first. A segment another
//     live Store still appends to is never deleted: its writer holds a
//     lock on it until the segment seals. A Get racing the eviction of its
//     segment degrades to a miss.
//   - Several Stores (several daemons) may share one directory. A miss
//     indexes what the others appended since this Store last looked, so a
//     Put through one is a hit through another.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// storeMagic brands every record; bump the digit on any format change so
// older daemons' records read as corrupt (a miss), never as wrong data.
const storeMagic = "pmstore1"

// segmentSuffix names segment files; everything else in the directory is
// ignored and left alone.
const segmentSuffix = ".pmseg"

const (
	// maxSegmentBytes caps the size at which a segment seals. Below it a
	// segment seals at an eighth of the budget, so eviction frees the
	// budget in steps of at most an eighth.
	maxSegmentBytes = 64 << 20
	// maxKeyLen bounds a record's key, so a record header always fits the
	// scan buffer. Keys are fingerprints with short view qualifiers.
	maxKeyLen = 4 << 10
	// scanBufBytes is the buffer the scan reads record headers through.
	scanBufBytes = 64 << 10
)

// errSegmentGone reports that another Store's eviction unlinked a segment
// between its creation and its writer's lock.
var errSegmentGone = errors.New("cache: new segment evicted before its lock")

// errStoreClosed is what a Put on a closed Store returns.
var errStoreClosed = errors.New("cache: store closed")

// StoreStats is a point-in-time snapshot of the disk-tier counters.
type StoreStats struct {
	// Hits counts Gets answered from a verified record.
	Hits int64
	// Misses counts Gets that found no usable entry.
	Misses int64
	// Puts counts successful writes.
	Puts int64
	// PutErrors counts writes that failed (disk full, permissions).
	PutErrors int64
	// Corrupt counts records rejected by verification and forgotten.
	Corrupt int64
	// Evictions counts entries removed by the size-bound GC.
	Evictions int64
	// Bytes is the record size, header plus payload, across live entries.
	Bytes int64
	// Entries is the current number of live entries.
	Entries int64
}

// segment is one segment file the Store knows: its own, which it appends
// to until the segment seals, or another Store's, which it only reads.
type segment struct {
	name string
	f    *os.File // nil while an own segment is being created
	own  bool

	// The fields below are guarded by Store.mu.
	sealed  bool     // own segments: no more appends
	size    int64    // bytes on disk as last seen (own: as appended)
	scanned int64    // another Store's segment: where the next scan starts
	syncing int      // Puts between their append and their fsync's end
	keys    []string // keys indexed into this segment, for eviction
}

// recordLoc is where the live record of a key sits.
type recordLoc struct {
	seg *segment
	off int64
	n   int64 // the whole record: header, key and payload
}

// Store is the disk-backed content-addressed tier. Keys are arbitrary
// strings (the serving layer uses fingerprints plus view qualifiers);
// values are opaque byte slices the caller serializes. Safe for
// concurrent use. Lock order: wmu, then scanMu, then mu.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	// wmu serializes appends to the active segment and its rotation. It
	// is never held across an fsync.
	wmu    sync.Mutex
	active *segment // nil until the next Put creates one

	// scanMu serializes refreshes; dirf, the open directory each lists,
	// scanBuf and recs are their scratch.
	scanMu  sync.Mutex
	dirf    *os.File
	scanBuf []byte
	recs    []scannedRecord

	mu        sync.Mutex
	index     map[string]recordLoc
	segs      map[string]*segment // by file name
	bytes     int64               // live records
	disk      int64               // every known segment's size
	lastStamp int64               // of the newest own segment's name
	closed    bool

	// The old layout's removal, when OpenStore found shard directories:
	// Close closes cleanStop to stop it, and it closes cleanDone when it
	// returns. Both are nil when it never started.
	cleanStop, cleanDone chan struct{}
	cleanOnce            sync.Once

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	putErrors atomic.Int64
	corrupt   atomic.Int64
	evictions atomic.Int64
}

// OpenStore opens (creating the directory if needed) a store rooted at
// dir, bounded to maxBytes on disk (<= 0 means unbounded). It indexes the
// segments already in the directory by reading their record headers, and
// GCs immediately if they exceed the bound. It creates no file: the first
// Put creates the Store's segment. When the directory holds the shard
// directories of the one-file-per-entry layout, their removal goes on in
// the background after OpenStore returns, until it ends or Close stops it.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	return openStore(dir, maxBytes, nil)
}

// openStore is OpenStore with a hook the old layout's removal calls, when
// non-nil, before each file it unlinks, passing the channel Close closes
// to stop it. Tests hold the removal back with it.
func openStore(dir string, maxBytes int64, hook func(stop <-chan struct{})) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: store dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: store dir: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: store dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		dirf:     dirf,
		index:    make(map[string]recordLoc),
		segs:     make(map[string]*segment),
	}
	s.scanMu.Lock()
	ents, err := s.listLocked()
	if err == nil {
		s.indexLocked(ents)
	}
	s.scanMu.Unlock()
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("cache: store scan: %w", err)
	}
	if shards := oldShards(ents); len(shards) > 0 {
		s.cleanStop, s.cleanDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(s.cleanDone)
			removeOldLayout(dir, shards, s.cleanStop, hook)
		}()
	}
	s.GC()
	return s, nil
}

// oldShards returns the two-hex-digit shard directories of the
// one-file-per-entry layout in the listing ents, which OpenStore already
// made, so a directory without shards costs no system call.
func oldShards(ents []os.DirEntry) []string {
	var shards []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() && len(name) == 2 && isLowerHex(name[0]) && isLowerHex(name[1]) {
			shards = append(shards, name)
		}
	}
	return shards
}

// removeOldLayout deletes what the one-file-per-entry layout left in a
// store directory upgraded in place: the .pmr entry files in its shard
// directories, then each shard they emptied. This store never serves
// them, and left in place they would hold disk that maxBytes does not
// count. A full store holds hundreds of thousands of them, so it runs
// beside the serving store and returns between two files once stop is
// closed; the next OpenStore finishes the job. Another Store opening the
// directory at the same time may remove a file or shard first; anything
// else in a shard, and so the shard, stays.
func removeOldLayout(dir string, shards []string, stop <-chan struct{}, hook func(stop <-chan struct{})) {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for _, name := range shards {
		if stopped() {
			return
		}
		shard := filepath.Join(dir, name)
		files, err := os.ReadDir(shard)
		if err != nil {
			continue // gone already, or unreadable: left as it is
		}
		for _, f := range files {
			if !f.Type().IsRegular() || !strings.HasSuffix(f.Name(), oldEntrySuffix) {
				continue
			}
			if hook != nil {
				hook(stop)
			}
			if stopped() {
				return
			}
			// Best effort, like the shard below: ENOENT means another
			// Store removed it first, and any other error leaves a file
			// this store ignores anyway.
			_ = os.Remove(filepath.Join(shard, f.Name()))
		}
		// Fails, keeping the shard, while anything else is in it.
		_ = os.Remove(shard)
	}
}

// oldEntrySuffix names an entry file of the one-file-per-entry layout.
const oldEntrySuffix = ".pmr"

func isLowerHex(c byte) bool { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the old layout's removal and waits for it, seals the
// Store's active segment, releasing its writer's lock so other Stores may
// evict it, and closes every segment file. After Close every Get misses
// and every Put fails.
func (s *Store) Close() error {
	if s.cleanDone != nil {
		s.cleanOnce.Do(func() { close(s.cleanStop) })
		<-s.cleanDone
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active != nil {
		s.sealLocked(s.active)
	}
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	segs := s.segs
	s.segs = make(map[string]*segment)
	s.index = make(map[string]recordLoc)
	s.bytes, s.disk = 0, 0
	s.mu.Unlock()
	if closed {
		return nil
	}
	err := s.dirf.Close()
	for _, seg := range segs {
		if seg.f != nil {
			if cerr := seg.f.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Get returns the stored value for key. ok is false on any miss — absent,
// truncated, corrupt, or concurrently evicted — never an error the caller
// must handle: the disk tier degrades, it does not fail. A key this Store
// has not indexed is looked for again after indexing what other Stores
// appended since the last look.
func (s *Store) Get(key string) (val []byte, ok bool) {
	val, ok = s.read(key)
	if !ok {
		if found, _ := s.refresh(); found {
			val, ok = s.read(key)
		}
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return val, ok
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

// read serves key from the record the index holds for it, verifying it.
// A record that fails a check counts as corrupt and is forgotten.
func (s *Store) read(key string) ([]byte, bool) {
	s.mu.Lock()
	loc, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	blob := make([]byte, loc.n)
	n, err := loc.seg.f.ReadAt(blob, loc.off)
	if errors.Is(err, os.ErrClosed) {
		return nil, false // its segment was evicted under us
	}
	var val []byte
	if n == len(blob) {
		val, err = decodeEntry(blob, key)
	} else if err == nil {
		err = fmt.Errorf("cache: store read: short record")
	}
	if err != nil {
		s.corrupt.Add(1)
		s.mu.Lock()
		if s.index[key] == loc {
			delete(s.index, key)
			s.bytes -= loc.n
		}
		s.mu.Unlock()
		return nil, false
	}
	return val, true
}

// Put appends the value for key to the Store's active segment and syncs
// it. A later Put of the same key supersedes the earlier record. Put
// failures are counted and returned, but callers treat the store as
// advisory — a failed Put only costs a future recompute.
func (s *Store) Put(key string, val []byte) error {
	if len(key) > maxKeyLen {
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: key of %d bytes exceeds %d", len(key), maxKeyLen)
	}
	rec := encodeEntry(key, val)
	seg, off, err := s.append(rec)
	if err == nil {
		// Outside wmu: Puts that append meanwhile share the disk flush.
		if err = seg.f.Sync(); err != nil {
			s.seal(seg) // its tail cannot be trusted: append elsewhere
		}
	}
	if seg != nil {
		s.mu.Lock()
		seg.syncing--
		// An eviction can take the segment only once its syncs are done,
		// so seg is still known here.
		if err == nil {
			s.setLocked(key, recordLoc{seg: seg, off: off, n: int64(len(rec))})
		}
		s.mu.Unlock()
	}
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("cache: store put: %w", err)
	}
	s.puts.Add(1)
	if s.over() {
		s.GC()
	}
	return nil
}

// append writes rec at the end of the active segment, creating one if
// none is open, and seals the segment once it reaches its size or the
// write fails. The caller syncs the segment and then decrements its
// syncing count, which append incremented.
func (s *Store) append(rec []byte) (*segment, int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		seg, err := s.createSegment()
		if err != nil {
			return nil, 0, err
		}
		s.active = seg
	}
	seg := s.active
	off := seg.size // only a holder of wmu changes an active segment's size
	n, err := seg.f.WriteAt(rec, off)
	s.mu.Lock()
	seg.size += int64(n)
	s.disk += int64(n)
	seg.syncing++
	s.mu.Unlock()
	if err != nil || seg.size >= s.sealBytes() {
		s.sealLocked(seg)
	}
	return seg, off, err
}

// sealBytes is the size at which the active segment seals.
func (s *Store) sealBytes() int64 {
	if s.maxBytes <= 0 {
		return maxSegmentBytes
	}
	return min(max(s.maxBytes/8, 1), maxSegmentBytes)
}

// createSegment creates the Store's next segment and takes its writer's
// lock. Called with wmu held. Segment names are creation stamps, so name
// order is age order; the name is registered before the file exists, so
// a concurrent refresh never mistakes it for another Store's segment.
func (s *Store) createSegment() (*segment, error) {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errStoreClosed
		}
		s.lastStamp = max(time.Now().UnixNano(), s.lastStamp+1)
		seg := &segment{name: fmt.Sprintf("%016x%s", s.lastStamp, segmentSuffix), own: true}
		if s.segs[seg.name] != nil {
			s.mu.Unlock()
			continue
		}
		s.segs[seg.name] = seg
		s.mu.Unlock()
		var f *os.File
		f, err = os.OpenFile(filepath.Join(s.dir, seg.name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			err = lockWriter(f)
		}
		if err == nil {
			s.mu.Lock()
			seg.f = f
			s.mu.Unlock()
			return seg, nil
		}
		s.mu.Lock()
		delete(s.segs, seg.name)
		s.mu.Unlock()
		if f != nil {
			f.Close()
		}
		if !errors.Is(err, fs.ErrExist) && !errors.Is(err, errSegmentGone) {
			break
		}
	}
	return nil, err
}

// lockWriter takes the writer's lock on a segment just created, then
// checks that the segment is still linked: another Store's eviction may
// have locked and unlinked it first. Where flock is unsupported the
// segment stays unlocked, as a lone Store needs no lock.
func lockWriter(f *os.File) error {
	if flock(f, syscall.LOCK_EX) != nil {
		return nil
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if unlinked(info) {
		return errSegmentGone
	}
	return nil
}

// flock applies how to f, retrying on EINTR.
func flock(f *os.File, how int) error {
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}

// unlinked reports whether a file's last name is gone.
func unlinked(info os.FileInfo) bool {
	st, ok := info.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 0
}

// sealLocked stops appends to seg, an own segment, and releases its
// writer's lock. Called with wmu held. The file stays open for reads.
func (s *Store) sealLocked(seg *segment) {
	flock(seg.f, syscall.LOCK_UN)
	s.mu.Lock()
	seg.sealed = true
	s.mu.Unlock()
	if s.active == seg {
		s.active = nil
	}
}

// seal seals seg if it is still the active segment.
func (s *Store) seal(seg *segment) {
	s.wmu.Lock()
	if s.active == seg {
		s.sealLocked(seg)
	}
	s.wmu.Unlock()
}

// setLocked points key's index entry at loc. Called with mu held.
func (s *Store) setLocked(key string, loc recordLoc) {
	if old, ok := s.index[key]; ok {
		s.bytes -= old.n
	}
	s.index[key] = loc
	s.bytes += loc.n
	loc.seg.keys = append(loc.seg.keys, key)
}

// dropLocked forgets seg and every index entry that points into it,
// returning how many entries that was. Called with mu held.
func (s *Store) dropLocked(seg *segment) int {
	n := 0
	for _, key := range seg.keys {
		if loc, ok := s.index[key]; ok && loc.seg == seg {
			delete(s.index, key)
			s.bytes -= loc.n
			n++
		}
	}
	delete(s.segs, seg.name)
	s.disk -= seg.size
	return n
}

// over reports whether the known segments exceed the budget.
func (s *Store) over() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBytes > 0 && s.disk > s.maxBytes
}

// GC enforces the byte budget immediately (it normally runs inside Put)
// and reports how many entries were evicted. It deletes whole segments,
// oldest first: this Store's sealed ones and other Stores' segments that
// no live writer holds. When none is left it seals this Store's active
// segment and deletes that too.
func (s *Store) GC() int {
	evicted := 0
	for s.over() {
		s.mu.Lock()
		victim := s.victimLocked()
		n := 0
		if victim != nil {
			n = s.dropLocked(victim)
		}
		s.mu.Unlock()
		if victim == nil {
			s.wmu.Lock()
			active := s.active
			if active != nil {
				s.sealLocked(active)
			}
			s.wmu.Unlock()
			if active == nil {
				break
			}
			continue
		}
		os.Remove(filepath.Join(s.dir, victim.name))
		victim.f.Close() // releases the eviction lock on another Store's segment
		s.evictions.Add(int64(n))
		evicted += n
	}
	return evicted
}

// victimLocked returns the oldest segment GC may delete, or nil. Another
// Store's segment qualifies only if this Store can take its lock, which
// its writer holds until the segment seals; the lock is held until the
// victim's file closes. Called with mu held.
func (s *Store) victimLocked() *segment {
	var cands []*segment
	for _, seg := range s.segs {
		if seg.f != nil && seg.syncing == 0 && (seg.sealed || !seg.own) {
			cands = append(cands, seg)
		}
	}
	slices.SortFunc(cands, func(a, b *segment) int { return strings.Compare(a.name, b.name) })
	for _, seg := range cands {
		if seg.own || flock(seg.f, syscall.LOCK_EX|syscall.LOCK_NB) == nil {
			return seg
		}
	}
	return nil
}

// scannedRecord is one whole record a scan found.
type scannedRecord struct {
	key    string
	off, n int64
}

// refresh indexes what other Stores appended since this one last looked:
// segments it has not seen and the grown tails of those it has. It
// forgets segments another Store evicted. It reads no byte of a segment
// this Store wrote or of one that has not grown, and reports whether it
// indexed any record.
func (s *Store) refresh() (bool, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, nil
	}
	ents, err := s.listLocked()
	if err != nil {
		return false, err
	}
	return s.indexLocked(ents), nil
}

// listLocked lists the store directory, sorted by name. Called with
// scanMu held.
func (s *Store) listLocked() ([]os.DirEntry, error) {
	// Listing the open directory again spares a path lookup per miss.
	if _, err := s.dirf.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	ents, err := s.dirf.ReadDir(-1)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(ents, func(a, b os.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return ents, nil
}

// indexLocked indexes the segments of the listing ents as refresh
// describes and reports whether it indexed any record. Called with scanMu
// held.
func (s *Store) indexLocked(ents []os.DirEntry) bool {
	found := false
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) || !e.Type().IsRegular() {
			continue
		}
		s.mu.Lock()
		seg := s.segs[name]
		s.mu.Unlock()
		if seg != nil && seg.own {
			continue
		}
		fresh := seg == nil
		if fresh {
			f, err := os.Open(filepath.Join(s.dir, name))
			if err != nil {
				continue // evicted since the listing
			}
			seg = &segment{name: name, f: f}
		}
		// Only refresh writes size and scanned of another Store's
		// segment, so it reads them here without mu.
		info, err := seg.f.Stat()
		if err != nil || info.Size() <= seg.size {
			if fresh {
				seg.f.Close()
			}
			continue
		}
		size := info.Size()
		if s.scanBuf == nil {
			s.scanBuf = make([]byte, scanBufBytes)
		}
		s.recs = s.recs[:0]
		next := s.scanSegment(seg.f, seg.scanned, size)
		s.mu.Lock()
		// A GC may have evicted a known segment meanwhile.
		keep := fresh || s.segs[name] == seg
		if keep {
			s.segs[name] = seg
			s.disk += size - seg.size
			seg.size, seg.scanned = size, next
			for _, r := range s.recs {
				s.setLocked(r.key, recordLoc{seg: seg, off: r.off, n: r.n})
			}
		}
		s.mu.Unlock()
		if !keep && fresh {
			seg.f.Close()
		}
		found = found || (keep && len(s.recs) > 0)
	}
	s.forgetUnlinked(ents)
	return found
}

// forgetUnlinked drops the known segments missing from the listing ents
// whose files another Store has unlinked. Called with scanMu held.
func (s *Store) forgetUnlinked(ents []os.DirEntry) {
	var missing []*segment
	s.mu.Lock()
	for name, seg := range s.segs {
		if seg.f == nil || (seg.own && !seg.sealed) {
			continue
		}
		if _, ok := slices.BinarySearchFunc(ents, name, func(e os.DirEntry, name string) int {
			return strings.Compare(e.Name(), name)
		}); !ok {
			missing = append(missing, seg)
		}
	}
	s.mu.Unlock()
	for _, seg := range missing {
		// A segment created after the listing is missing from it too; the
		// link count tells the two apart.
		if info, err := seg.f.Stat(); err != nil || !unlinked(info) {
			continue
		}
		s.mu.Lock()
		gone := s.segs[seg.name] == seg && seg.syncing == 0
		if gone {
			s.dropLocked(seg)
		}
		s.mu.Unlock()
		if gone {
			seg.f.Close()
		}
	}
}

// scanSegment reads the record headers of f from off up to size through
// the scan buffer, appending every whole record to s.recs, and returns
// where it stopped: size, or the start of a record it could not read
// whole — a torn tail, or bytes that are no record. It skips payloads
// unread when they run past the buffer. Called with scanMu held.
func (s *Store) scanSegment(f *os.File, off, size int64) int64 {
	buf := s.scanBuf
	var bufOff, bufLen int64 // buf holds the file's bytes [bufOff, bufOff+bufLen)
	window := func(at, n int64) []byte {
		if at < bufOff || at+n > bufOff+bufLen {
			got, _ := f.ReadAt(buf[:min(int64(len(buf)), size-at)], at)
			bufOff, bufLen = at, int64(got)
		}
		if at+n > bufOff+bufLen {
			return nil
		}
		return buf[at-bufOff : at-bufOff+n]
	}
	for off < size {
		h := window(off, 16)
		if h == nil || string(h[:8]) != storeMagic {
			break
		}
		keyLen := int64(binary.BigEndian.Uint64(h[8:16]))
		if keyLen < 0 || keyLen > maxKeyLen {
			break
		}
		h = window(off, 16+keyLen+8)
		if h == nil {
			break
		}
		valLen := binary.BigEndian.Uint64(h[16+keyLen:])
		n := 16 + keyLen + 8 + 32
		if rest := size - off - n; rest < 0 || valLen > uint64(rest) {
			break
		}
		n += int64(valLen)
		s.recs = append(s.recs, scannedRecord{key: string(h[16 : 16+keyLen]), off: off, n: n})
		off += n
	}
	return off
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the disk-tier counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	bytes, entries := s.bytes, int64(len(s.index))
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

// Record layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "pmstore1"
//	8       8     key length K
//	16      K     key bytes
//	16+K    8     payload length N
//	24+K    32    SHA-256(payload)
//	56+K    N     payload
//
// A segment is records laid end to end. The recorded key lets a scan
// rebuild the index, and lets a read reject a record the index points at
// wrongly instead of serving a value for the wrong request.

// encodeEntry serializes one record.
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

// decodeEntry verifies one record read whole and returns its payload.
func decodeEntry(blob []byte, key string) ([]byte, error) {
	if len(blob) < 8+8 || string(blob[:8]) != storeMagic {
		return nil, fmt.Errorf("cache: store entry: bad magic")
	}
	off := 8
	keyLen := binary.BigEndian.Uint64(blob[off : off+8])
	off += 8
	if keyLen > uint64(len(blob)-off) {
		return nil, fmt.Errorf("cache: store entry: truncated key")
	}
	if string(blob[off:off+int(keyLen)]) != key {
		return nil, fmt.Errorf("cache: store entry: key mismatch")
	}
	off += int(keyLen)
	if len(blob)-off < 8+32 {
		return nil, fmt.Errorf("cache: store entry: truncated header")
	}
	valLen := binary.BigEndian.Uint64(blob[off : off+8])
	off += 8
	var want [32]byte
	copy(want[:], blob[off:off+32])
	off += 32
	if valLen != uint64(len(blob)-off) {
		return nil, fmt.Errorf("cache: store entry: truncated payload")
	}
	val := blob[off:]
	if sha256.Sum256(val) != want {
		return nil, fmt.Errorf("cache: store entry: checksum mismatch")
	}
	return val, nil
}
