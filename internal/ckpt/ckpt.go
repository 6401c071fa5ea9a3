// Package ckpt is the durable-state layer: atomic files for everything
// the repo must not lose to a crash or SIGINT — curriculum checkpoints,
// the verdict store's MANIFEST, and saved models.
//
// Two guarantees, and only two:
//
//   - Atomicity. WriteFileAtomic writes to a temp file in the target
//     directory, fsyncs it, renames it over the destination, and
//     fsyncs the directory. Readers observe either the old file or the
//     new file, never a truncated hybrid — a crash mid-write cannot
//     corrupt a checkpoint that already exists.
//
//   - Integrity. Save wraps a JSON payload in a one-line envelope
//     header carrying a format magic, a version, a kind tag, and a
//     SHA-256 checksum of the payload. Load refuses anything whose
//     header, kind, or checksum does not match, so a corrupt or
//     hand-edited checkpoint fails loudly at load time instead of
//     panicking mid-run.
//
// What a checkpoint *means* (which fields make a resumed curriculum
// bit-identical) is the owning package's concern: pipeline serializes
// the curriculum state at stage boundaries, vstore its segment list.
// ckpt only moves bytes durably.
package ckpt

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// envelope is the one-line JSON header preceding a Save payload.
type envelope struct {
	Magic   string `json:"veriopt_ckpt"`
	Version int    `json:"version"`
	// Kind tags what the payload is (e.g. "curriculum", "model") so a
	// file of one kind cannot be loaded as another.
	Kind string `json:"kind"`
	// SHA256 is the hex checksum of the payload bytes that follow.
	SHA256 string `json:"sha256"`
	// Size is the payload length in bytes.
	Size int `json:"size"`
}

const (
	magic   = "v1"
	version = 1
)

// WriteFileAtomic writes data to path atomically: temp file in the
// same directory, fsync, rename over path, fsync the directory. On
// any error the destination is untouched and the temp file removed.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: fsync temp: %w", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: chmod temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	// Persist the rename itself. Best-effort: some filesystems refuse
	// directory fsync, and by this point the data is durable in the
	// file.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Save marshals v as JSON, wraps it in the checksummed envelope, and
// writes it atomically to path.
func Save(path, kind string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: marshal %s: %w", kind, err)
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(envelope{
		Magic:   magic,
		Version: version,
		Kind:    kind,
		SHA256:  hex.EncodeToString(sum[:]),
		Size:    len(payload),
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Grow(len(hdr) + 1 + len(payload) + 1)
	buf.Write(hdr)
	buf.WriteByte('\n')
	buf.Write(payload)
	buf.WriteByte('\n')
	return WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// Load reads a Save-format file, validates the envelope and checksum,
// and unmarshals the payload into v. Every failure mode names the
// file.
func Load(path, kind string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdrLine, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("ckpt: %s: read header: %w", path, err)
	}
	var hdr envelope
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return fmt.Errorf("ckpt: %s: bad header: %w", path, err)
	}
	if hdr.Magic != magic {
		return fmt.Errorf("ckpt: %s: not a veriopt checkpoint", path)
	}
	if hdr.Version != version {
		return fmt.Errorf("ckpt: %s: version %d, want %d", path, hdr.Version, version)
	}
	if hdr.Kind != kind {
		return fmt.Errorf("ckpt: %s: kind %q, want %q", path, hdr.Kind, kind)
	}
	// The size is checked before anything is allocated for it: a
	// corrupt header must fail here, not panic or exhaust memory.
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if left := st.Size() - int64(len(hdrLine)); hdr.Size < 0 || int64(hdr.Size) > left {
		return fmt.Errorf("ckpt: %s: header size %d, but %d bytes follow it", path, hdr.Size, left)
	}
	payload := make([]byte, hdr.Size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("ckpt: %s: truncated payload: %w", path, err)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return fmt.Errorf("ckpt: %s: checksum mismatch (corrupt checkpoint)", path)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("ckpt: %s: decode %s payload: %w", path, kind, err)
	}
	return nil
}

// Exists reports whether a checkpoint file is present at path.
func Exists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}
