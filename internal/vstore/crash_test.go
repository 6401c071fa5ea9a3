package vstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The crash suite simulates kills at the failure points the design
// guards: mid-append (torn tail on the active segment) and plain bit
// rot; a kill mid-rotation is TestManifestIsTheCommitPoint. The contract under test: reopening loses at most the unsynced
// tail of the active segment, every surviving record passes its
// checksum, and corruption that cannot be a crash artifact (sealed
// segments) fails loudly instead of being guessed around.

// crashedStore builds a store with n records and simulated kill: the
// writer is abandoned without Close (handles leak until process exit,
// exactly like a kill -9), so nothing beyond what Put already synced
// reaches the manifest or an orderly shutdown path.
func crashedStore(t *testing.T, dir string, n int, segmentBytes int64) {
	t.Helper()
	s, err := open(dir, Config{}, segmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned, not closed: no final fsync, no manifest touch.
}

// activeSegmentPath returns the path of the manifest's active segment.
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seqs := s.replayOrder()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
}

func TestKillMidAppendTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	crashedStore(t, dir, 5, defaultSegmentBytes)
	// Simulate the kill landing mid-write: a record header naming a
	// 4096-byte payload of which only 16 bytes hit the disk.
	path := activeSegmentPath(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, recordHeaderBytes+16)
	binary.LittleEndian.PutUint32(torn[0:4], 4096)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.truncatedTails != 1 || st.Entries != 5 {
		t.Fatalf("stats after repair: %+v", st)
	}
	for i := 0; i < 5; i++ {
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The repaired store accepts new appends at the truncated offset.
	if err := s.Put(tkey(5), tres(5)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustGet(t, s, tkey(5)), tres(5))
}

func TestBitFlipInActiveTailTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	crashedStore(t, dir, 5, defaultSegmentBytes)
	path := activeSegmentPath(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the LAST record: the checksum fails, the
	// scan stops there, and only that record is lost.
	blob[len(blob)-2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after tail bit flip: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.truncatedTails != 1 {
		t.Fatalf("no tail repair recorded: %+v", st)
	}
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4 (only the flipped record lost)", st.Entries)
	}
	for i := 0; i < 4; i++ {
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if _, ok, _ := s.Get(tkey(4)); ok {
		t.Fatal("corrupt record served")
	}
}

func TestBitFlipInSealedSegmentFailsOpenLoudly(t *testing.T) {
	dir := t.TempDir()
	// A 1-byte threshold seals a segment on every append, so record 0
	// lives in a sealed segment.
	s, err := open(dir, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	seqs := s.replayOrder()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segmentName(seqs[0]))
	blob, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatalf("sealed segment %s empty", sealed)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(sealed, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Config{})
	if err == nil {
		t.Fatal("open succeeded over a corrupt sealed segment")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error does not name the corruption: %v", err)
	}
}

// TestEverySurvivingRecordPassesChecksum is the sweep form of the
// crash contract: after a torn-tail repair, re-scanning every byte the
// store kept must decode cleanly.
func TestEverySurvivingRecordPassesChecksum(t *testing.T) {
	dir := t.TempDir()
	crashedStore(t, dir, 10, 512)
	path := activeSegmentPath(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // not even a whole header
	f.Close()

	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var records int
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".vlog") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(blob); {
			_, n, err := decodeRecord(blob[off:])
			if err != nil {
				t.Fatalf("%s offset %d: surviving record fails decode: %v", e.Name(), off, err)
			}
			off += n
			records++
		}
	}
	if records != 10 {
		t.Fatalf("swept %d records, want 10", records)
	}
}
