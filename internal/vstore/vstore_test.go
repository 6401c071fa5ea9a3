package vstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/vcache"
)

func tkey(i int) vcache.Key {
	return vcache.Key{Src: fmt.Sprintf("src-%d", i), Dst: "dst", Opts: alive.DefaultOptions()}
}

func tres(i int) alive.Result {
	return alive.Result{Verdict: alive.SemanticError, Diag: fmt.Sprintf("ERROR: Value mismatch %d", i),
		Counterexample: map[string]uint64{"x": uint64(i)}, SolverConflicts: 10 * i}
}

func sameResult(t *testing.T, got, want alive.Result) {
	t.Helper()
	if got.Verdict != want.Verdict || got.Diag != want.Diag ||
		got.SolverConflicts != want.SolverConflicts ||
		got.Counterexample["x"] != want.Counterexample["x"] {
		t.Fatalf("result = %+v, want %+v", got, want)
	}
}

// replayOrder returns the segments in replay order; the last is the
// active one.
func (s *Store) replayOrder() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.order)
}

func mustGet(t *testing.T, s *Store, k vcache.Key) alive.Result {
	t.Helper()
	res, ok, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !ok {
		t.Fatalf("Get(%q): miss, want hit", k.Src)
	}
	return res
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if _, ok, err := s.Get(tkey(99)); err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stats()
	if st.Entries != 10 || st.Appends != 10 || st.hits != 10 || st.misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 20 {
		t.Fatalf("entries after reopen = %d, want 20", st.Entries)
	}
	for i := 0; i < 20; i++ {
		sameResult(t, mustGet(t, s2, tkey(i)), tres(i))
	}
	// The reopened store is writable and its new appends persist too.
	if err := s2.Put(tkey(20), tres(20)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustGet(t, s2, tkey(20)), tres(20))
}

func TestSupersedeKeepsNewestAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tkey(0), tres(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tkey(0), tres(2)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustGet(t, s, tkey(0)), tres(2))
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// Both records are on disk; LiveBytes counts the one that is served.
	newest, err := encodeRecord(record{Src: tkey(0).Src, Dst: tkey(0).Dst, Opts: tkey(0).Opts, Res: tres(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveBytes != int64(len(newest)) || st.appendedBytes <= uint64(st.LiveBytes) {
		t.Fatalf("live bytes = %d of %d appended, want %d (the newest record alone)", st.LiveBytes, st.appendedBytes, len(newest))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameResult(t, mustGet(t, s2, tkey(0)), tres(2))
	if st := s2.Stats(); st.Entries != 1 || st.LiveBytes != int64(len(newest)) {
		t.Fatalf("reopen stats: %+v", st)
	}
}

// fixKey is tkey with the options spelled out: the fixture's keys must
// not move when a default does.
func fixKey(i int) vcache.Key {
	k := tkey(i)
	k.Opts = alive.Options{MaxPaths: 512, MaxSteps: 4096, SolverBudget: 200000}
	return k
}

// TestParentWrittenStoreReopens opens a store written by the last
// build that could delete and compact (commit 56cc0e6): four segments
// in MANIFEST order [5 4 6 7], where 5 is a compaction's output and so
// precedes lower-numbered, younger segments; key 2's verdict in 5 is
// superseded in 4, key 4's in 6; key 3 has a deletion record in 4;
// key 0's first verdict and key 1 were dropped by the compaction.
// PARENT.json beside it is what that build reported on reopening it.
// The fixture was produced, in a checkout of that commit, by
//
//	cp testdata/parent-store/writer_test.go.txt internal/vstore/writer_test.go
//	PARENT_STORE_OUT=/tmp/parent-store go test ./internal/vstore -run TestWriteParentStore -v
func TestParentWrittenStoreReopens(t *testing.T) {
	const fixture = "testdata/parent-store"
	var want struct {
		Entries       int            `json:"entries"`
		LiveBytes     int64          `json:"live_bytes"`
		ManifestOrder []uint64       `json:"manifest_order"`
		VerdictOf     map[string]int `json:"verdict_of"`
		DeletedKeys   []int          `json:"deleted_keys"`
	}
	blob, err := os.ReadFile(filepath.Join(fixture, "PARENT.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(fixture, "seg-*.vlog"))
	for _, f := range append(files, filepath.Join(fixture, manifestName)) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	check := func(s *Store) {
		t.Helper()
		for k, v := range want.VerdictOf {
			i, err := strconv.Atoi(k)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, mustGet(t, s, fixKey(i)), tres(v))
		}
		for _, i := range want.DeletedKeys {
			if _, ok, err := s.Get(fixKey(i)); err != nil || ok {
				t.Fatalf("deleted key %d: ok=%v err=%v, want a miss", i, ok, err)
			}
		}
	}
	s, err := open(dir, Config{}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.replayOrder(); !slices.Equal(got, want.ManifestOrder) || len(got) < 3 || slices.IsSorted(got) {
		t.Fatalf("replay order %v, want %v: at least three segments, not in file-name order", got, want.ManifestOrder)
	}
	if st := s.Stats(); st.Entries != want.Entries || st.LiveBytes != want.LiveBytes || st.truncatedTails != 0 {
		t.Fatalf("stats %+v, want %d entries and %d live bytes as the writer reported", st, want.Entries, want.LiveBytes)
	}
	check(s)

	// It is an ordinary store from here: it takes appends, rotates, and
	// reopens with the old verdicts and the new.
	for i := 11; i <= 13; i++ {
		if err := s.Put(fixKey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
		want.VerdictOf[strconv.Itoa(i)] = i
	}
	if st := s.Stats(); st.Segments <= len(want.ManifestOrder) {
		t.Fatalf("%d segments after three appends, want a rotation past %d", st.Segments, len(want.ManifestOrder))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Entries != len(want.VerdictOf) {
		t.Fatalf("entries after the second reopen = %d, want %d", st.Entries, len(want.VerdictOf))
	}
	check(s)
}

func TestCanceledVerdictsRefused(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(tkey(0), alive.CanceledResult(nil)); err == nil {
		t.Fatal("Canceled verdict persisted")
	}
	if st := s.Stats(); st.Appends != 0 || st.Entries != 0 {
		t.Fatalf("refused Put still touched the log: %+v", st)
	}
}

// TestReasonSurvivesReopen: an Inconclusive verdict's reason is read
// off its diag, so the record a reopened store rebuilds still says why.
func TestReasonSurvivesReopen(t *testing.T) {
	src, err := ir.ParseFunc("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %s = add i6 %y, %z\n  %r = mul i6 %x, %s\n  ret i6 %r\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ir.ParseFunc("define i6 @d(i6 noundef %x, i6 noundef %y, i6 noundef %z) {\n  %a = mul i6 %x, %y\n  %b = mul i6 %x, %z\n  %r = add i6 %a, %b\n  ret i6 %r\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	opts := alive.DefaultOptions()
	opts.SolverBudget = 1
	res := alive.VerifyFuncs(src, tgt, opts)
	if res.Reason() != alive.ConflictBudget {
		t.Fatalf("x*(y+z) against x*y+x*z in 1 conflict: %v, reason %q (%s)", res.Verdict, res.Reason(), res.Diag)
	}
	k := vcache.Key{Src: vcache.KeyOfFunc(src), Dst: vcache.KeyOfFunc(tgt), Opts: opts}
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := mustGet(t, s, k); got.Reason() != alive.ConflictBudget || got.Diag != res.Diag {
		t.Fatalf("after reopen: %v, reason %q (%s), want %q (%s)", got.Verdict, got.Reason(), got.Diag, alive.ConflictBudget, res.Diag)
	}
}

func TestRotationSpreadsSegmentsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold rotates on every append.
	s, err := open(dir, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < n {
		t.Fatalf("segments = %d, want >= %d (rotate every append)", st.Segments, n)
	}
	for i := 0; i < n; i++ {
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != n {
		t.Fatalf("entries after reopen = %d, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		sameResult(t, mustGet(t, s2, tkey(i)), tres(i))
	}
}

func TestConcurrentReadersAndRotatingWriter(t *testing.T) {
	s, err := open(t.TempDir(), Config{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer the full key range while the writer supersedes
	// every key eight times over, rotating every third append.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := tkey(i % n)
				res, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok && res.Verdict != alive.SemanticError {
					t.Errorf("wrong verdict %v", res.Verdict)
					return
				}
			}
		}()
	}
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for round := 1; round <= 8; round++ {
			for i := 0; i < n; i++ {
				if err := s.Put(tkey(i), tres(1000*round+i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}
	}()
	<-writerDone
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if st := s.Stats(); st.Segments < 8*n/4 {
		t.Fatalf("%d segments: the writer was meant to rotate under the readers", st.Segments)
	}
	for i := 0; i < n; i++ {
		sameResult(t, mustGet(t, s, tkey(i)), tres(8000+i))
	}
}

func TestStatsStringAndCounters(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(tkey(0), tres(0)); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, tkey(0))
	st := s.Stats()
	if got := st.String(); !strings.Contains(got, "1 entries") || !strings.Contains(got, "1 appends") {
		t.Fatalf("String() = %q", got)
	}
	c := st.Counters()
	for _, name := range []string{"appends", "appended_bytes", "gets", "hits",
		"misses", "syncs", "truncated_tails"} {
		if _, ok := c[name]; !ok {
			t.Fatalf("Counters() missing %q", name)
		}
	}
	if len(c) != 7 || c["appends"] != 1 || c["hits"] != 1 {
		t.Fatalf("Counters() = %v", c)
	}
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tkey(0), tres(0)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

func TestFingerprintCollisionDegradesToMiss(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Force a collision by planting key A's record under key B's
	// fingerprint slot directly in the index.
	if err := s.Put(tkey(1), tres(1)); err != nil {
		t.Fatal(err)
	}
	hA := fingerprint(tkey(1))
	hB := fingerprint(tkey(2))
	s.mu.Lock()
	s.index[hB] = s.index[hA]
	s.mu.Unlock()
	// The stored record's full key disagrees with the queried key, so
	// the read reports a miss instead of key 1's verdict.
	if _, ok, err := s.Get(tkey(2)); err != nil || ok {
		t.Fatalf("collision read: ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestManifestIsTheCommitPoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tkey(0), tres(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Files the manifest does not own are removed on open and never
	// replayed: the segment a rotation created before a crash kept it
	// from saving the manifest (here even holding a well-formed record),
	// and the temp file of that interrupted save.
	ghost, err := encodeRecord(record{Src: "ghost", Dst: "dst", Res: tres(999)})
	if err != nil {
		t.Fatal(err)
	}
	orphanSeg := filepath.Join(dir, segmentName(77))
	orphanTmp := filepath.Join(dir, manifestName+".tmp77")
	for p, data := range map[string][]byte{orphanSeg: ghost, orphanTmp: []byte("half a manifest")} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, p := range []string{orphanSeg, orphanTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived open", filepath.Base(p))
		}
	}
	sameResult(t, mustGet(t, s2, tkey(0)), tres(0))
	if _, ok, _ := s2.Get(vcache.Key{Src: "ghost", Dst: "dst"}); ok || s2.Stats().Entries != 1 {
		t.Fatal("a segment the manifest does not name was replayed")
	}
}

// TestCorruptManifestSizeFailsOpen: a MANIFEST whose header claims a
// negative size, or more bytes than the file holds, makes Open return
// an error instead of panicking or exhausting memory.
func TestCorruptManifestSizeFailsOpen(t *testing.T) {
	for _, size := range []int64{-1, 1 << 40} {
		dir := t.TempDir()
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(tkey(0), tres(0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		mpath := filepath.Join(dir, manifestName)
		blob, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		hdrLine, rest, _ := strings.Cut(string(blob), "\n")
		var hdr map[string]any
		if err := json.Unmarshal([]byte(hdrLine), &hdr); err != nil {
			t.Fatal(err)
		}
		hdr["size"] = size
		bad, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, []byte(string(bad)+"\n"+rest), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Config{}); err == nil {
			s.Close()
			t.Errorf("size %d: Open accepted a corrupt MANIFEST", size)
		}
	}
}

// flakyFile is an append handle on a disk that fills: it lets room
// more bytes through, then fails every write after writing what fits.
// With stuck set it cannot be truncated either; with badSync set every
// fsync fails.
type flakyFile struct {
	*os.File
	room    int
	stuck   bool
	badSync bool
}

func (f *flakyFile) Sync() error {
	if f.badSync {
		return errors.New("input/output error")
	}
	return f.File.Sync()
}

func (f *flakyFile) Write(b []byte) (int, error) {
	if len(b) <= f.room {
		f.room -= len(b)
		return f.File.Write(b)
	}
	n, _ := f.File.Write(b[:f.room])
	f.room = 0
	return n, errors.New("no space left on device")
}

func (f *flakyFile) Truncate(size int64) error {
	if f.stuck {
		return errors.New("input/output error")
	}
	return f.File.Truncate(size)
}

// fillDisk swaps the active segment's append handle for one that
// accepts room more bytes.
func fillDisk(s *Store, room int, stuck bool) *flakyFile {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	f := &flakyFile{File: s.active().w.(*os.File), room: room, stuck: stuck}
	s.active().w = f
	return f
}

// TestShortWriteLeavesTheStoreUsable: an append that fails part-way
// leaves its first bytes in the O_APPEND file. Unless they are cut
// away every later record of the segment is indexed that many bytes
// early, and once the segment is sealed the store never opens again.
func TestShortWriteLeavesTheStoreUsable(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, Config{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) error { return s.Put(tkey(i), tres(i)) }
	for i := 0; i < 2; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
	}
	disk := fillDisk(s, 11, false)
	if err := put(2); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("Put on a full disk: %v, want the write's error", err)
	}
	if st := s.Stats(); st.Appends != 2 || st.Entries != 2 {
		t.Fatalf("the failed Put was counted: %+v", st)
	}
	// The condition clears; the store carries on, through a rotation.
	disk.room = 1 << 30
	for i := 3; i < 10; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("%d segments, want a rotation after the failed append", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after a short write: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 9 || st.truncatedTails != 0 {
		t.Fatalf("stats after reopen: %+v, want the 9 acknowledged verdicts and nothing to repair", st)
	}
	for i := 0; i < 10; i++ {
		if i == 2 {
			if _, ok, err := s2.Get(tkey(i)); err != nil || ok {
				t.Fatalf("the verdict whose Put failed: ok=%v err=%v, want a miss", ok, err)
			}
			continue
		}
		sameResult(t, mustGet(t, s2, tkey(i)), tres(i))
	}
}

// TestShortWriteThatCannotBeCutRefusesAppends: when the truncate fails
// as well, the partial record must stay the tail of the active segment
// — the one place reopening repairs — so the store takes no more
// appends and does not rotate.
func TestShortWriteThatCannotBeCutRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, Config{}, 300) // a rotation every other append
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	segments := s.Stats().Segments
	fillDisk(s, 11, true)
	if err := s.Put(tkey(3), tres(3)); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("Put on a full disk: %v, want the write's error", err)
	}
	for i := 4; i < 6; i++ {
		if err := s.Put(tkey(i), tres(i)); err == nil || !strings.Contains(err.Error(), "reopen") {
			t.Fatalf("Put after an uncut short write: %v, want a refusal", err)
		}
	}
	if st := s.Stats(); st.Segments != segments || st.Appends != 3 {
		t.Fatalf("stats %+v, want %d segments and 3 appends still", st, segments)
	}
	for i := 0; i < 3; i++ { // reads are unaffected
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen over the torn tail: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 3 || st.truncatedTails != 1 {
		t.Fatalf("stats after reopen: %+v, want 3 entries and one repaired tail", st)
	}
	if err := s2.Put(tkey(3), tres(3)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustGet(t, s2, tkey(3)), tres(3))
}

// TestFailedSyncRefusesLaterAppends: after a failed fsync the page
// cache can no longer be trusted, so a later fsync that succeeds proves
// nothing. The Put that hit it returns the error with its record
// indexed; every later Put is refused and appends nothing, reads keep
// answering, and reopening replays the segment cleanly.
func TestFailedSyncRefusesLaterAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, Config{SyncEvery: 1}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(tkey(i), tres(i)); err != nil {
			t.Fatal(err)
		}
	}
	fillDisk(s, 1<<30, false).badSync = true
	if err := s.Put(tkey(2), tres(2)); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("Put whose fsync failed: %v, want the fsync's error", err)
	}
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(s.dir, segmentName(s.active().seq)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	for i := 3; i < 5; i++ {
		if err := s.Put(tkey(i), tres(i)); err == nil || !strings.Contains(err.Error(), "reopen") {
			t.Fatalf("Put after a failed fsync: %v, want a refusal", err)
		}
	}
	if after := size(); after != before {
		t.Fatalf("the segment grew from %d to %d bytes after the failed fsync", before, after)
	}
	if st := s.Stats(); st.Appends != 3 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 3 appends and 3 entries", st)
	}
	for i := 0; i < 3; i++ { // reads are unaffected, the indexed record too
		sameResult(t, mustGet(t, s, tkey(i)), tres(i))
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("Close after a failed fsync: %v, want the fsync's error, not a retry", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after a failed fsync: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 3 || st.truncatedTails != 0 {
		t.Fatalf("stats after reopen: %+v, want the 3 records and nothing to repair", st)
	}
	for i := 0; i < 3; i++ {
		sameResult(t, mustGet(t, s2, tkey(i)), tres(i))
	}
	if err := s2.Put(tkey(3), tres(3)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, mustGet(t, s2, tkey(3)), tres(3))
}

// sync flushes the active segment's unsynced tail to disk.
func (s *Store) sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.syncLocked()
}
