package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
	"veriopt/internal/vstore"
)

// cmdCache is the verdict-storage admin surface:
//
//	veriopt cache migrate -from cache.jsonl -store-dir DIR
//	veriopt cache stat    -store-dir DIR
//	veriopt cache compact -store-dir DIR
//
// migrate streams a JSONL verdict-cache snapshot (the persistence
// format before -store-dir, see readSnapshot) into a segment store, so
// a deployment that still holds one moves over without re-proving
// anything. stat prints the store's stats; compact runs one compaction
// synchronously and reports what it reclaimed.
func cmdCache(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: veriopt cache {migrate|stat|compact} [flags]")
	}
	op, args := args[0], args[1:]
	fs := flag.NewFlagSet("cache "+op, flag.ExitOnError)
	dir := fs.String("store-dir", "", "verdict store directory")
	from := fs.String("from", "", "legacy JSONL cache snapshot to migrate (migrate only)")
	switch op {
	case "migrate", "stat", "compact":
	default:
		return fmt.Errorf("unknown cache operation %q (want migrate, stat, or compact)", op)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("veriopt cache %s: -store-dir is required", op)
	}

	st, err := vstore.Open(*dir, vstore.Config{})
	if err != nil {
		return fmt.Errorf("open verdict store: %w", err)
	}
	defer func() {
		if cerr := st.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "error: close verdict store:", cerr)
		}
	}()

	switch op {
	case "migrate":
		if *from == "" {
			return fmt.Errorf("veriopt cache migrate: -from snapshot file is required")
		}
		f, err := os.Open(*from)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := readSnapshot(f, st.Put)
		if err != nil {
			return fmt.Errorf("migrate %s: %w", *from, err)
		}
		if err := st.Sync(); err != nil {
			return err
		}
		s := st.Stats()
		fmt.Printf("migrated %d verdicts from %s into %s (%d entries, %d segments)\n",
			n, *from, *dir, s.Entries, s.Segments)
		fmt.Println("the snapshot file is untouched; point serve/train/experiments at the store with -store-dir")
	case "stat":
		s := st.Stats()
		fmt.Printf("%s\n", s)
		for _, line := range []struct {
			name string
			val  int64
		}{
			{"segments", int64(s.Segments)},
			{"entries", int64(s.Entries)},
			{"live_bytes", s.LiveBytes},
			{"dead_bytes", s.DeadBytes},
		} {
			fmt.Printf("%-12s %d\n", line.name, line.val)
		}
	case "compact":
		res, ok, err := st.Compact()
		if err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		if !ok {
			fmt.Println("compaction already running; nothing done")
			return nil
		}
		fmt.Printf("compacted %d segments: %d live records kept, %d dropped, %d bytes reclaimed, %v writer pause\n",
			res.SegmentsIn, res.Live, res.Dropped, res.ReclaimedBytes, res.Pause)
	}
	return nil
}

// A verdict-cache snapshot is JSON lines: one header object, then one
// object per cached verdict. Nothing writes the format any more; a
// file on someone's disk is outside input, so the reader keeps its
// checks.
const (
	snapshotFormat  = "veriopt-vcache"
	snapshotVersion = 1
)

type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type snapshotEntry struct {
	Src  string        `json:"src"`
	Dst  string        `json:"dst"`
	Opts alive.Options `json:"opts"`
	Res  alive.Result  `json:"res"`
}

// readSnapshot streams a snapshot, calling put for each entry in
// stored order, and returns the number delivered. Canceled results are
// transient by contract (see alive.Result.Canceled): a line claiming
// one is skipped. A malformed header or line fails loudly, naming the
// entry, rather than silently truncating the import.
func readSnapshot(r io.Reader, put func(vcache.Key, alive.Result) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return 0, fmt.Errorf("bad snapshot header: %w", err)
	}
	if hdr.Format != snapshotFormat {
		return 0, fmt.Errorf("snapshot format %q, want %q", hdr.Format, snapshotFormat)
	}
	if hdr.Version != snapshotVersion {
		return 0, fmt.Errorf("snapshot version %d, want %d", hdr.Version, snapshotVersion)
	}
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ent snapshotEntry
		if err := json.Unmarshal(line, &ent); err != nil {
			return n, fmt.Errorf("snapshot entry %d: %w", n+1, err)
		}
		if ent.Res.Canceled {
			continue
		}
		if err := put(vcache.Key{Src: ent.Src, Dst: ent.Dst, Opts: ent.Opts}, ent.Res); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}
