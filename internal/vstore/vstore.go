// Package vstore is the cold tier of the verdict storage spine: an
// append-only, crash-safe, on-disk log of verdicts that
// internal/vcache overflows into and warm-starts from. A verdict is a
// pure function of its key (src, tgt, Options) — which is why it may
// be memoized at all — so a record is an immutable fact: it is
// appended once, durably, as it is produced, and nothing the system
// does afterwards deletes it or reclaims its bytes.
//
// Layout: a store directory holds numbered append-only segment files
// (seg-NNNNNNNN.vlog) of checksummed, length-prefixed records (see
// record.go), plus a MANIFEST written atomically through internal/ckpt
// that fixes the segment replay order. The newest segment is the
// active one; all writes append to it, and it rotates past 8 MiB.
// Older (sealed) segments are immutable and are never unlinked, which
// is what makes concurrent reads trivially safe against the single
// writer.
//
// Crash safety:
//
//   - Appends are acknowledged into the OS immediately and fsynced
//     every Config.SyncEvery appends (and on Close). A crash loses
//     at most the unsynced tail of the active segment; on reopen the
//     torn tail is detected by length/checksum validation and truncated
//     away. A record that fails its checksum is never served.
//   - A failed append (a short write: ENOSPC, EIO) cuts the active
//     segment back to where the record began, so the store stays
//     usable once the condition clears. If the cut fails too the store
//     refuses further appends and never rotates: the damage stays a
//     torn active tail, which reopening repairs.
//   - A failed fsync refuses every later append and fsync. The kernel
//     may have dropped the dirty pages and cleared the error, so a
//     retry that succeeds would prove nothing; reopening replays what
//     reached the disk. Reads keep answering.
//   - A new segment file exists, fsynced, before the MANIFEST names
//     it. A crash between the two leaves an orphan file the MANIFEST
//     does not name; orphans are deleted on open.
//   - Sealed segments are never modified, so corruption found in one is
//     not a crash artifact — Open fails loudly instead of guessing.
//
// The in-memory index maps a key's 32-byte vcache.Key.Fingerprint to
// the newest record location. No digest is written to disk: Open
// rebuilds the index by fingerprinting each record's stored key, so a
// store outlives any change to the digest's definition. Put on a key
// that already has a record appends a second one, and the newest wins
// — in memory at once, on reopen because replay follows the MANIFEST's
// order; the older record stays on disk. Reads verify the record
// checksum and compare the stored key, so a fingerprint collision
// degrades to a miss, never a wrong verdict.
//
// Stores written before the log was append-only may hold deletion
// records and a compacted segment the MANIFEST orders before
// lower-numbered ones. Replay honours both: a file on disk is outside
// input, and a record that says "deleted" is never served.
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
	"strings"
	"sync"
	"sync/atomic"

	"veriopt/internal/alive"
	"veriopt/internal/ckpt"
	"veriopt/internal/vcache"
)

const (
	// defaultSegmentBytes is the rotation threshold for the active
	// segment: large enough that a training run stays in a handful of
	// segments. Only the package's tests open a store with another
	// (open), to rotate often.
	defaultSegmentBytes = 8 << 20
	// defaultSyncEvery is the fsync cadence in appends for the zero
	// Config.SyncEvery. It bounds the crash-loss window to a few dozen
	// verdicts while keeping append cost amortized.
	defaultSyncEvery = 32
)

const manifestName = "MANIFEST"

// Config tunes a Store. The zero value selects the default above.
type Config struct {
	// SyncEvery fsyncs the active segment after this many appends
	// (<= 0 selects defaultSyncEvery; 1 = every append). Close always
	// flushes the tail regardless.
	SyncEvery int
}

// manifest is the atomically-swapped source of truth for the segment
// set and its replay order. It is written through ckpt.Save, so it
// inherits the checksummed-envelope + temp/fsync/rename discipline.
type manifest struct {
	Version int `json:"version"`
	// Segments lists segment sequence numbers in replay order; the
	// last entry is the active segment. Replay order is what makes
	// last-writer-wins recovery correct, so it is recorded explicitly
	// rather than inferred from file names (a store written by an
	// older build may order a higher-numbered segment first).
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
	r    *os.File   // ReadAt handle, safe for concurrent readers
	w    appendFile // append handle, active segment only
	size int64
}

// appendFile is what the writer needs of the active segment's
// O_APPEND handle: an *os.File, or a test's handle that fails.
type appendFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// Store is the on-disk verdict store. Construct with Open; all methods
// are safe for concurrent use. Reads take a shared lock and pread from
// immutable offsets; writes are serialized by a single writer lock.
type Store struct {
	dir string
	cfg Config
	// segmentBytes rotates the active segment once it reaches this size.
	segmentBytes int64

	// wmu serializes all mutation: Put, rotation and Close.
	wmu sync.Mutex
	// mu guards the index and segment table for readers.
	mu    sync.RWMutex
	index map[[32]byte]recloc
	segs  map[uint64]*segment
	order []uint64 // replay order; last = active
	// liveBytes is the bytes of the records the index points at.
	liveBytes int64

	nextSeq  uint64
	unsynced int
	// refuse, once set, is what every later append returns: the store
	// is closed, a failed append left bytes it could not cut back, or
	// an fsync failed.
	refuse error
	// syncErr is the first failed fsync, which every later sync
	// returns instead of retrying.
	syncErr error

	// counters
	appends        atomic.Uint64
	appendedBytes  atomic.Uint64
	gets           atomic.Uint64
	hits           atomic.Uint64
	misses         atomic.Uint64
	syncs          atomic.Uint64
	truncatedTails atomic.Uint64
}

// Store implements the hot tier's backing interface.
var _ vcache.Backing = (*Store)(nil)

func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.vlog", seq) }

// Open opens (or initializes) the store in dir, replaying every
// segment named by the MANIFEST to rebuild the index. A torn tail on
// the active segment — the signature of a crash between fsyncs — is
// truncated away; corruption anywhere else fails loudly. Files in dir
// that the MANIFEST does not name (a segment created by a rotation
// that crashed before its manifest save, checkpoint temp files) are
// removed.
func Open(dir string, cfg Config) (*Store, error) {
	return open(dir, cfg, defaultSegmentBytes)
}

// open is Open with the rotation threshold as a parameter, the seam
// through which the rotation and crash tests seal segments every few
// records.
func open(dir string, cfg Config, segmentBytes int64) (*Store, error) {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = defaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vstore: create dir: %w", err)
	}
	s := &Store{
		dir:          dir,
		cfg:          cfg,
		segmentBytes: segmentBytes,
		index:        make(map[[32]byte]recloc),
		segs:         make(map[uint64]*segment),
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

// removeOrphans deletes files the manifest does not own: a segment left
// by a crash between createSegmentFile and the manifest save, and
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
	seg := &segment{seq: seq, r: r}

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
		s.replay(rec, recloc{seq: seq, off: off, n: uint32(total)})
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

// replay applies one scanned record to the index: the newest record
// for a key wins, and a deletion record (only older builds wrote them)
// drops the key. Open-time only; callers hold no locks.
func (s *Store) replay(rec record, loc recloc) {
	h := rec.key().Fingerprint()
	if rec.Tomb {
		s.liveBytes -= int64(s.index[h].n)
		delete(s.index, h)
		return
	}
	s.point(h, loc)
}

// point makes loc the record the index serves for h and keeps
// liveBytes exact. Callers hold mu, or no lock at open.
func (s *Store) point(h [32]byte, loc recloc) {
	s.liveBytes += int64(loc.n) - int64(s.index[h].n)
	s.index[h] = loc
}

// active returns the write-side segment. Callers hold wmu.
func (s *Store) active() *segment { return s.segs[s.order[len(s.order)-1]] }

// Put appends a verdict for k; if k already has a record the new one
// supersedes it and the old one stays on disk. It refuses Canceled
// results: they are transient by contract and must never be
// persisted.
func (s *Store) Put(k vcache.Key, res alive.Result) error {
	if res.Reason() == alive.Canceled {
		return fmt.Errorf("vstore: refusing to persist a Canceled verdict")
	}
	buf, err := encodeRecord(record{Src: k.Src, Dst: k.Dst, Opts: k.Opts, Res: res})
	if err != nil {
		return err
	}
	h := k.Fingerprint()

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.refuse != nil {
		return s.refuse
	}
	seg := s.active()
	off := seg.size
	if _, err := seg.w.Write(buf); err != nil {
		// The handle is O_APPEND, so whatever part of buf was written
		// is in the file at off, where the next record would be
		// indexed. Cut it away; a tail that cannot be cut must stay the
		// active segment's, where reopening repairs it.
		if terr := seg.w.Truncate(off); terr != nil {
			s.refuse = fmt.Errorf("vstore: an append failed (%v) and its partial record could not be cut (%v); reopen the store to repair it", err, terr)
		}
		return fmt.Errorf("vstore: append: %w", err)
	}
	seg.size = off + int64(len(buf))

	s.mu.Lock()
	s.point(h, recloc{seq: seg.seq, off: off, n: uint32(len(buf))})
	s.mu.Unlock()

	s.appends.Add(1)
	s.appendedBytes.Add(uint64(len(buf)))

	s.unsynced++
	if s.unsynced >= s.cfg.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if seg.size >= s.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the stored verdict for k. A sealed segment is immutable
// and never unlinked, so a failed read or checksum is an error, not
// something a retry could mend; a record that fails its checksum is
// never returned.
func (s *Store) Get(k vcache.Key) (alive.Result, bool, error) {
	s.gets.Add(1)
	h := k.Fingerprint()
	s.mu.RLock()
	loc, ok := s.index[h]
	seg := s.segs[loc.seq]
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return alive.Result{}, false, nil
	}
	buf := make([]byte, loc.n)
	_, err := seg.r.ReadAt(buf, loc.off)
	var rec record
	if err == nil {
		rec, _, err = decodeRecord(buf)
	}
	if err != nil {
		s.misses.Add(1)
		return alive.Result{}, false, fmt.Errorf("vstore: read record: %w", err)
	}
	if rec.key() != k {
		// A fingerprint collision: the stored record belongs to a
		// different key.
		s.misses.Add(1)
		return alive.Result{}, false, nil
	}
	s.hits.Add(1)
	return rec.Res, true, nil
}

func (s *Store) syncLocked() error {
	if s.syncErr != nil || s.unsynced == 0 {
		return s.syncErr
	}
	seg := s.active()
	if seg.w == nil {
		return nil
	}
	if err := seg.w.Sync(); err != nil {
		s.syncErr = fmt.Errorf("vstore: fsync: %w", err)
		if s.refuse == nil {
			s.refuse = fmt.Errorf("vstore: an fsync failed (%v); reopen the store to replay what reached the disk", err)
		}
		return s.syncErr
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
	s.segs[seq] = &segment{seq: seq, r: r, w: w}
	s.order = order
	s.mu.Unlock()
	return nil
}

func (s *Store) saveManifest(order []uint64) error {
	return ckpt.Save(filepath.Join(s.dir, manifestName), manifestKind,
		manifest{Version: manifestVersion, Segments: order, NextSeq: s.nextSeq})
}

// Close syncs the tail and releases every file handle.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.refuse = fmt.Errorf("vstore: store is closed")
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
	// Gauges. LiveBytes is the bytes of the records the index points
	// at — what a reopen keeps, as opposed to what was appended.
	Segments  int
	Entries   int
	LiveBytes int64
	// Counters.
	Appends        uint64
	appendedBytes  uint64
	gets           uint64
	hits           uint64
	misses         uint64
	syncs          uint64
	truncatedTails uint64
}

// Counters returns the snapshot's monotonic counters under stable
// snake_case names for metrics exporters; gauges are excluded.
func (s Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"appends":         s.Appends,
		"appended_bytes":  s.appendedBytes,
		"gets":            s.gets,
		"hits":            s.hits,
		"misses":          s.misses,
		"syncs":           s.syncs,
		"truncated_tails": s.truncatedTails,
	}
}

// String renders the snapshot for logs and the cache admin CLI.
func (s Stats) String() string {
	return fmt.Sprintf("vstore: %d entries in %d segments (%d live bytes), %d appends, %d gets (%d hits), %d syncs, %d torn tails repaired",
		s.Entries, s.Segments, s.LiveBytes,
		s.Appends, s.gets, s.hits, s.syncs, s.truncatedTails)
}

// Stats returns a snapshot of the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{Segments: len(s.order), Entries: len(s.index), LiveBytes: s.liveBytes}
	s.mu.RUnlock()
	st.Appends = s.appends.Load()
	st.appendedBytes = s.appendedBytes.Load()
	st.gets = s.gets.Load()
	st.hits = s.hits.Load()
	st.misses = s.misses.Load()
	st.syncs = s.syncs.Load()
	st.truncatedTails = s.truncatedTails.Load()
	return st
}
