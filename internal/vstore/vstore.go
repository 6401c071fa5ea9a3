// Package vstore is the cold tier of the verdict storage spine: a
// log-structured, crash-safe, on-disk verdict store that
// internal/vcache overflows into and warm-starts from. Where the old
// persistence path was a load-at-boot/flush-on-exit JSONL snapshot —
// capped by RAM, rewritten O(n) on every flush, and lost on a crash
// between flushes — vstore appends each verdict once, durably, as it
// is produced.
//
// Layout: a store directory holds numbered append-only segment files
// (seg-NNNNNNNN.vlog) of checksummed, length-prefixed records (see
// record.go), plus a MANIFEST written atomically through internal/ckpt
// that fixes the segment replay order. The newest segment is the
// active one; all writes append to it, and it rotates at
// Config.SegmentBytes. Older (sealed) segments are immutable, which is
// what makes concurrent reads trivially safe against the single
// writer.
//
// Crash safety:
//
//   - Appends are acknowledged into the OS immediately and fsynced
//     every Config.SyncEvery appends (and on Sync/Close). A crash loses
//     at most the unsynced tail of the active segment; on reopen the
//     torn tail is detected by length/checksum validation and truncated
//     away. A record that fails its checksum is never served.
//   - Compaction writes a fresh segment to a temp file, fsyncs, renames
//     it into place, and only then swaps the MANIFEST atomically. A
//     crash at any point leaves either the old segment set or the new
//     one; orphan files not named by the MANIFEST are deleted on open.
//   - Sealed segments are never modified, so corruption found in one is
//     not a crash artifact — Open fails loudly instead of guessing.
//
// The in-memory index maps a 32-byte key fingerprint to the newest
// record location; superseded and tombstoned records are dead weight
// on disk until compaction drops them. Reads verify the record
// checksum and compare the stored key, so a fingerprint collision
// degrades to a miss, never a wrong verdict.
//
// Invariant carried over from the snapshot era: Canceled verdicts are
// transient by contract and are never persisted — Put refuses them.
//
// A Store assumes single-process ownership of its directory (one
// writer, any number of readers in the same process). It implements
// vcache.Backing, which is how the hot tier demotes into and promotes
// out of it.
package vstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ckpt"
	"veriopt/internal/vcache"
)

// Defaults for the zero Config.
const (
	// defaultSegmentBytes is the rotation threshold for the active
	// segment. Small enough that compaction works in modest units,
	// large enough that a training run stays in a handful of segments.
	defaultSegmentBytes = 8 << 20
	// defaultSyncEvery is the fsync cadence in appends. It bounds the
	// crash-loss window to a few dozen verdicts while keeping append
	// cost amortized; 1 fsyncs every append.
	defaultSyncEvery = 32
	// defaultCompactMinDeadFrac is the dead-byte fraction of sealed
	// segments above which rotation triggers a background compaction.
	defaultCompactMinDeadFrac = 0.5
)

const manifestName = "MANIFEST"

// Config sizes a Store. The zero value selects the defaults above.
type Config struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size (<= 0 selects defaultSegmentBytes).
	SegmentBytes int64
	// SyncEvery fsyncs the active segment after this many appends
	// (<= 0 selects defaultSyncEvery; 1 = every append). Sync and
	// Close always flush the tail regardless.
	SyncEvery int
	// CompactMinDeadFrac triggers background compaction after a
	// rotation when sealed segments carry at least this fraction of
	// dead bytes (<= 0 selects defaultCompactMinDeadFrac).
	CompactMinDeadFrac float64
	// DisableAutoCompact turns off the rotation-triggered background
	// compaction; Compact can still be called explicitly (the
	// `veriopt cache compact` admin path, tests).
	DisableAutoCompact bool
}

// manifest is the atomically-swapped source of truth for the segment
// set and its replay order. It is written through ckpt.Save, so it
// inherits the checksummed-envelope + temp/fsync/rename discipline.
type manifest struct {
	Version int `json:"version"`
	// Segments lists segment sequence numbers in replay order; the
	// last entry is the active segment. Replay order is what makes
	// last-writer-wins recovery correct, so it is recorded explicitly
	// rather than inferred from file names.
	Segments []uint64 `json:"segments"`
	// NextSeq is the next unused sequence number.
	NextSeq uint64 `json:"next_seq"`
}

const (
	manifestKind    = "vstore-manifest"
	manifestVersion = 1
)

// recloc locates one record: segment sequence number, byte offset, and
// total record length (header included).
type recloc struct {
	seq uint64
	off int64
	n   uint32
}

// segment is one on-disk log file. Sealed segments keep only the read
// handle; the active segment also holds the write handle.
type segment struct {
	seq  uint64
	path string
	r    *os.File // ReadAt handle, safe for concurrent readers
	w    *os.File // append handle, active segment only
	size int64

	// live/dead byte and record accounting, guarded by Store.mu. Dead
	// weight is what compaction reclaims.
	liveBytes, deadBytes int64
	liveRecs, deadRecs   int64
}

// Store is the on-disk verdict store. Construct with Open; all methods
// are safe for concurrent use. Reads take a shared lock and pread from
// immutable offsets; writes are serialized by a single writer lock.
type Store struct {
	dir string
	cfg Config

	// wmu serializes all mutation: Put, Delete, Sync, rotation, the
	// compaction swap, and Close.
	wmu sync.Mutex
	// mu guards the index and segment table for readers.
	mu    sync.RWMutex
	index map[[32]byte]recloc
	segs  map[uint64]*segment
	order []uint64 // replay order; last = active

	nextSeq  uint64
	unsynced int
	closing  atomic.Bool

	compacting atomic.Bool
	compactWG  sync.WaitGroup

	// counters
	appends        atomic.Uint64
	appendedBytes  atomic.Uint64
	tombstones     atomic.Uint64
	gets           atomic.Uint64
	hits           atomic.Uint64
	misses         atomic.Uint64
	syncs          atomic.Uint64
	compactions    atomic.Uint64
	reclaimedBytes atomic.Uint64
	truncatedTails atomic.Uint64
	compactPauseNs atomic.Int64
}

// Store implements the hot tier's backing interface.
var _ vcache.Backing = (*Store)(nil)

func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.vlog", seq) }

// Open opens (or initializes) the store in dir, replaying every
// segment named by the MANIFEST to rebuild the index. A torn tail on
// the active segment — the signature of a crash between fsyncs — is
// truncated away; corruption anywhere else fails loudly. Files in dir
// that the MANIFEST does not name (crashed-compaction leftovers,
// checkpoint temp files) are removed.
func Open(dir string, cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = defaultSyncEvery
	}
	if cfg.CompactMinDeadFrac <= 0 {
		cfg.CompactMinDeadFrac = defaultCompactMinDeadFrac
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: create dir: %w", err)
	}
	s := &Store{
		dir:   dir,
		cfg:   cfg,
		index: make(map[[32]byte]recloc),
		segs:  make(map[uint64]*segment),
	}

	mpath := filepath.Join(dir, manifestName)
	var m manifest
	if ckpt.Exists(mpath) {
		if err := ckpt.Load(mpath, manifestKind, &m); err != nil {
			return nil, fmt.Errorf("vstore: %w", err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("vstore: manifest version %d, want %d", m.Version, manifestVersion)
		}
	} else {
		m = manifest{Version: manifestVersion, Segments: []uint64{1}, NextSeq: 2}
		if err := s.createSegmentFile(1); err != nil {
			return nil, err
		}
		if err := ckpt.Save(mpath, manifestKind, m); err != nil {
			return nil, err
		}
	}
	s.order = append(s.order, m.Segments...)
	s.nextSeq = m.NextSeq
	for _, seq := range s.order {
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}

	if err := s.removeOrphans(); err != nil {
		return nil, err
	}

	for i, seq := range s.order {
		last := i == len(s.order)-1
		if err := s.openAndReplay(seq, last); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	return s, nil
}

// createSegmentFile creates an empty segment file and persists its
// existence (fsync file and directory) before it is ever named by a
// manifest.
func (s *Store) createSegmentFile(seq uint64) error {
	path := filepath.Join(s.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("vstore: create segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("vstore: fsync new segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(s.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best-effort, matching ckpt's posture
	}
	d.Sync()
	d.Close()
	return nil
}

// removeOrphans deletes files the manifest does not own: segments left
// by a crash between a compaction's rename and its manifest swap, and
// stray temp files. They are dead by construction — the manifest is
// the commit point.
func (s *Store) removeOrphans() error {
	owned := make(map[string]bool, len(s.order)+1)
	owned[manifestName] = true
	for _, seq := range s.order {
		owned[segmentName(seq)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("vstore: scan dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || owned[name] {
			continue
		}
		if strings.HasSuffix(name, ".vlog") || strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// openAndReplay opens segment seq and scans its records into the
// index. For the active (last) segment a decode failure marks a torn
// tail: everything before it is kept, the tail is truncated, and the
// store stays writable. For sealed segments — immutable since they
// were fsynced — any decode failure is corruption and aborts the open.
func (s *Store) openAndReplay(seq uint64, active bool) error {
	path := filepath.Join(s.dir, segmentName(seq))
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("vstore: open segment %s: %w", segmentName(seq), err)
	}
	seg := &segment{seq: seq, path: path, r: r}

	br := bufio.NewReaderSize(r, 1<<20)
	var off int64
	hdr := make([]byte, recordHeaderBytes)
	var scanErr error
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				break
			}
			scanErr = fmt.Errorf("truncated record header: %w", err)
			break
		}
		// Re-decode through the shared path so scan and read agree on
		// every validity rule.
		n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
		if recordHeaderBytes+n > maxRecordBytes {
			scanErr = fmt.Errorf("record length %d exceeds bound", n)
			break
		}
		buf := make([]byte, recordHeaderBytes+n)
		copy(buf, hdr)
		if _, err := io.ReadFull(br, buf[recordHeaderBytes:]); err != nil {
			scanErr = fmt.Errorf("truncated record payload: %w", err)
			break
		}
		rec, total, err := decodeRecord(buf)
		if err != nil {
			scanErr = err
			break
		}
		s.replay(seg, rec, recloc{seq: seq, off: off, n: uint32(total)})
		off += int64(total)
	}
	seg.size = off

	if scanErr != nil {
		if !active {
			r.Close()
			return fmt.Errorf("vstore: sealed segment %s corrupt at offset %d: %w", segmentName(seq), off, scanErr)
		}
		// Torn tail on the active segment: the crash contract. Truncate
		// to the last whole record and continue.
		if err := os.Truncate(path, off); err != nil {
			r.Close()
			return fmt.Errorf("vstore: truncate torn tail of %s: %w", segmentName(seq), err)
		}
		s.truncatedTails.Add(1)
	}

	if active {
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			r.Close()
			return fmt.Errorf("vstore: open active segment for append: %w", err)
		}
		seg.w = w
	}
	s.segs[seq] = seg
	return nil
}

// replay applies one scanned record to the index and the live/dead
// accounting. Callers hold no locks (open) or both locks (compaction
// swap never replays; this is open-time only).
func (s *Store) replay(seg *segment, rec record, loc recloc) {
	h := fingerprint(rec.key())
	if old, ok := s.index[h]; ok {
		if oseg := s.segs[old.seq]; oseg != nil {
			oseg.liveBytes -= int64(old.n)
			oseg.deadBytes += int64(old.n)
			oseg.liveRecs--
			oseg.deadRecs++
		} else if old.seq == seg.seq {
			seg.liveBytes -= int64(old.n)
			seg.deadBytes += int64(old.n)
			seg.liveRecs--
			seg.deadRecs++
		}
	}
	if rec.Tomb {
		delete(s.index, h)
		seg.deadBytes += int64(loc.n)
		seg.deadRecs++
		return
	}
	s.index[h] = loc
	seg.liveBytes += int64(loc.n)
	seg.liveRecs++
}

// active returns the write-side segment. Callers hold wmu.
func (s *Store) active() *segment { return s.segs[s.order[len(s.order)-1]] }

// Put appends a verdict for k, superseding any earlier record. It
// refuses Canceled results: they are transient by contract and must
// never be persisted.
func (s *Store) Put(k vcache.Key, res alive.Result) error {
	if res.Canceled {
		return fmt.Errorf("vstore: refusing to persist a Canceled verdict")
	}
	return s.append(record{Src: k.Src, Dst: k.Dst, Opts: k.Opts, Res: res})
}

// Delete appends a tombstone for k. Deleting an absent key is a no-op
// that still writes the tombstone (idempotent by replay).
func (s *Store) Delete(k vcache.Key) error {
	return s.append(record{Src: k.Src, Dst: k.Dst, Opts: k.Opts, Tomb: true})
}

func (s *Store) append(rec record) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	h := fingerprint(rec.key())

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closing.Load() {
		return fmt.Errorf("vstore: store is closed")
	}
	seg := s.active()
	off := seg.size
	if _, err := seg.w.Write(buf); err != nil {
		// A partial write leaves a torn tail exactly like a crash
		// would; reopening repairs it. Refuse further appends at this
		// offset by not advancing size only on full success.
		return fmt.Errorf("vstore: append: %w", err)
	}
	seg.size = off + int64(len(buf))
	loc := recloc{seq: seg.seq, off: off, n: uint32(len(buf))}

	s.mu.Lock()
	if old, ok := s.index[h]; ok {
		if oseg := s.segs[old.seq]; oseg != nil {
			oseg.liveBytes -= int64(old.n)
			oseg.deadBytes += int64(old.n)
			oseg.liveRecs--
			oseg.deadRecs++
		}
	}
	if rec.Tomb {
		delete(s.index, h)
		seg.deadBytes += int64(len(buf))
		seg.deadRecs++
	} else {
		s.index[h] = loc
		seg.liveBytes += int64(len(buf))
		seg.liveRecs++
	}
	s.mu.Unlock()

	s.appends.Add(1)
	s.appendedBytes.Add(uint64(len(buf)))
	if rec.Tomb {
		s.tombstones.Add(1)
	}

	s.unsynced++
	if s.unsynced >= s.cfg.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if seg.size >= s.cfg.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the stored verdict for k. A fingerprint collision or a
// read raced against a compaction swap retries against the fresh
// index; a record that fails its checksum is never returned.
func (s *Store) Get(k vcache.Key) (alive.Result, bool, error) {
	s.gets.Add(1)
	h := fingerprint(k)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s.mu.RLock()
		loc, ok := s.index[h]
		var seg *segment
		if ok {
			seg = s.segs[loc.seq]
		}
		s.mu.RUnlock()
		if !ok || seg == nil {
			s.misses.Add(1)
			return alive.Result{}, false, nil
		}
		buf := make([]byte, loc.n)
		if _, err := seg.r.ReadAt(buf, loc.off); err != nil {
			// The segment may have been compacted away between the
			// lookup and the read; retry re-resolves the location.
			lastErr = err
			continue
		}
		rec, _, err := decodeRecord(buf)
		if err != nil {
			lastErr = err
			continue
		}
		if rec.Tomb || rec.key() != k {
			// Tombstones never stay indexed, so this is a fingerprint
			// collision: the stored record belongs to a different key.
			s.misses.Add(1)
			return alive.Result{}, false, nil
		}
		s.hits.Add(1)
		return rec.Res, true, nil
	}
	s.misses.Add(1)
	return alive.Result{}, false, fmt.Errorf("vstore: read record: %w", lastErr)
}

// Sync flushes the active segment's unsynced tail to disk.
func (s *Store) Sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.unsynced == 0 {
		return nil
	}
	seg := s.active()
	if seg.w == nil {
		return nil
	}
	if err := seg.w.Sync(); err != nil {
		return fmt.Errorf("vstore: fsync: %w", err)
	}
	s.unsynced = 0
	s.syncs.Add(1)
	return nil
}

// rotateLocked seals the active segment and opens a fresh one. The new
// segment file exists (and is fsynced) before the manifest names it,
// so a crash at any interleaving reopens cleanly. Callers hold wmu.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	seq := s.nextSeq
	if err := s.createSegmentFile(seq); err != nil {
		return err
	}
	s.nextSeq++
	order := append(append([]uint64{}, s.order...), seq)
	if err := s.saveManifest(order); err != nil {
		return err
	}
	path := filepath.Join(s.dir, segmentName(seq))
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		r.Close()
		return err
	}
	old := s.active()
	old.w.Close()
	old.w = nil

	s.mu.Lock()
	s.segs[seq] = &segment{seq: seq, path: path, r: r, w: w}
	s.order = order
	s.mu.Unlock()

	if !s.cfg.DisableAutoCompact && s.sealedDeadFrac() >= s.cfg.CompactMinDeadFrac {
		s.startBackgroundCompact()
	}
	return nil
}

// sealedDeadFrac reports the dead-byte fraction across sealed
// segments.
func (s *Store) sealedDeadFrac() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var live, dead int64
	for _, seq := range s.order[:len(s.order)-1] {
		seg := s.segs[seq]
		live += seg.liveBytes
		dead += seg.deadBytes
	}
	if live+dead == 0 {
		return 0
	}
	return float64(dead) / float64(live+dead)
}

func (s *Store) saveManifest(order []uint64) error {
	return ckpt.Save(filepath.Join(s.dir, manifestName), manifestKind,
		manifest{Version: manifestVersion, Segments: order, NextSeq: s.nextSeq})
}

// Close syncs the tail and releases every file handle. Waits for any
// background compaction to finish first.
func (s *Store) Close() error {
	s.closing.Store(true)
	s.compactWG.Wait()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.syncLocked()
	s.closeAll()
	return err
}

func (s *Store) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if seg.r != nil {
			seg.r.Close()
		}
		if seg.w != nil {
			seg.w.Close()
		}
	}
}

// Stats is a point-in-time snapshot of the store's counters and
// gauges.
type Stats struct {
	// Gauges.
	Segments  int
	Entries   int
	LiveBytes int64
	DeadBytes int64
	// Counters.
	Appends        uint64
	AppendedBytes  uint64
	Tombstones     uint64
	Gets           uint64
	Hits           uint64
	Misses         uint64
	Syncs          uint64
	Compactions    uint64
	ReclaimedBytes uint64
	TruncatedTails uint64
	// CompactPause is cumulative writer-visible pause spent inside
	// compaction swaps.
	CompactPause time.Duration
}

// Counters returns the snapshot's monotonic counters under stable
// snake_case names for metrics exporters; gauges are excluded.
func (s Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"appends":         s.Appends,
		"appended_bytes":  s.AppendedBytes,
		"tombstones":      s.Tombstones,
		"gets":            s.Gets,
		"hits":            s.Hits,
		"misses":          s.Misses,
		"syncs":           s.Syncs,
		"compactions":     s.Compactions,
		"reclaimed_bytes": s.ReclaimedBytes,
		"truncated_tails": s.TruncatedTails,
	}
}

// String renders the snapshot for logs and the cache admin CLI.
func (s Stats) String() string {
	return fmt.Sprintf("vstore: %d entries in %d segments (%d live / %d dead bytes), %d appends, %d gets (%d hits), %d syncs, %d compactions (%d bytes reclaimed, %v pause), %d torn tails repaired",
		s.Entries, s.Segments, s.LiveBytes, s.DeadBytes,
		s.Appends, s.Gets, s.Hits, s.Syncs,
		s.Compactions, s.ReclaimedBytes, s.CompactPause.Round(time.Millisecond),
		s.TruncatedTails)
}

// Stats returns a snapshot of the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Segments: len(s.order),
		Entries:  len(s.index),
	}
	for _, seg := range s.segs {
		st.LiveBytes += seg.liveBytes
		st.DeadBytes += seg.deadBytes
	}
	s.mu.RUnlock()
	st.Appends = s.appends.Load()
	st.AppendedBytes = s.appendedBytes.Load()
	st.Tombstones = s.tombstones.Load()
	st.Gets = s.gets.Load()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Syncs = s.syncs.Load()
	st.Compactions = s.compactions.Load()
	st.ReclaimedBytes = s.reclaimedBytes.Load()
	st.TruncatedTails = s.truncatedTails.Load()
	st.CompactPause = time.Duration(s.compactPauseNs.Load())
	return st
}

// segmentSeqs returns the current replay order (tests, admin stat).
func (s *Store) segmentSeqs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]uint64{}, s.order...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
