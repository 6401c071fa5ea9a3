package ckpt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string    `json:"name"`
	Steps int       `json:"steps"`
	Xs    []float64 `json:"xs"`
}

func TestWriteFileAtomicOverwritesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("contents = %q, want %q", got, "new")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "out.bin" {
			t.Fatalf("leftover file %q after atomic writes", e.Name())
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	in := payload{Name: "trainer", Steps: 17, Xs: []float64{1.5, -2.25, 0}}
	if err := Save(path, "test-state", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test-state", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Steps != in.Steps || len(out.Xs) != len(in.Xs) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	for i := range in.Xs {
		if out.Xs[i] != in.Xs[i] {
			t.Fatalf("Xs[%d] = %v, want %v", i, out.Xs[i], in.Xs[i])
		}
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := Save(path, "kind-a", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	err := Load(path, "kind-b", &out)
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong-kind load error = %v, want kind mismatch", err)
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := Save(path, "test-state", payload{Name: "x", Steps: 3}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte past the header line.
	nl := bytes.IndexByte(blob, '\n')
	blob[nl+2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	err = Load(path, "test-state", &out)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt load error = %v, want checksum mismatch", err)
	}
}

func TestLoadRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a checkpoint at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test-state", &out); err == nil {
		t.Fatal("garbage file loaded without error")
	}
}

// TestLoadRejectsBadSize: a header whose size is negative or larger
// than the file must fail the load before anything is allocated for it
// (a negative size used to panic in make, a huge one to run the process
// out of memory).
func TestLoadRejectsBadSize(t *testing.T) {
	for _, size := range []int{-1, 1 << 40} {
		path := filepath.Join(t.TempDir(), "state.ckpt")
		hdr, err := json.Marshal(envelope{Magic: magic, Version: version, Kind: "test-state", Size: size})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(hdr, "\n{}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		if err := Load(path, "test-state", &out); err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("size %d: load error = %v, want a size error", size, err)
		}
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(filepath.Join(dir, "missing")) {
		t.Error("Exists true for missing file")
	}
	if Exists(dir) {
		t.Error("Exists true for a directory")
	}
	path := filepath.Join(dir, "f")
	os.WriteFile(path, []byte("x"), 0o644)
	if !Exists(path) {
		t.Error("Exists false for present file")
	}
}
