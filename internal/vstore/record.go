package vstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
)

// On-disk record layout, little-endian:
//
//	[4B payload length n][4B CRC-32C of payload][n bytes JSON payload]
//
// The CRC covers the payload only; a corrupt length field is caught by
// the maxRecordBytes bound or by the CRC of whatever bytes it selects.
// Records never span segments and are immutable once appended — a
// second Put for a key is a new record, and the newest wins.

const (
	// recordHeaderBytes is the fixed prefix before the payload.
	recordHeaderBytes = 8
	// maxRecordBytes bounds a single record (header + payload). It
	// exists so a corrupt or adversarial length prefix can never drive
	// a multi-gigabyte allocation: decoding fails loudly instead.
	maxRecordBytes = 16 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is the JSON payload of one stored verdict. It carries the
// full key, not just its fingerprint, so reads can reject fingerprint
// collisions and a store is recoverable from segments alone.
type record struct {
	Src  string        `json:"src"`
	Dst  string        `json:"dst"`
	Opts alive.Options `json:"opts"`
	Res  alive.Result  `json:"res"`
	// Tomb marks a deletion. Nothing writes one any more; stores on
	// disk may hold them, and replaying one removes the key.
	Tomb bool `json:"tomb,omitempty"`
}

func (r record) key() vcache.Key {
	return vcache.Key{Src: r.Src, Dst: r.Dst, Opts: r.Opts}
}

// encodeRecord renders rec in the on-disk layout.
func encodeRecord(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("vstore: marshal record: %w", err)
	}
	if recordHeaderBytes+len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("vstore: record %d bytes exceeds %d-byte bound", recordHeaderBytes+len(payload), maxRecordBytes)
	}
	buf := make([]byte, recordHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderBytes:], payload)
	return buf, nil
}

// decodeRecord parses one record from the front of data, returning the
// record and the total bytes it occupied. Truncated input, an
// out-of-bounds length, a checksum mismatch, or malformed JSON all
// return an error — never a panic, and never a record whose payload
// did not pass its checksum.
func decodeRecord(data []byte) (record, int, error) {
	var rec record
	if len(data) < recordHeaderBytes {
		return rec, 0, fmt.Errorf("vstore: truncated record header (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if recordHeaderBytes+n > maxRecordBytes {
		return rec, 0, fmt.Errorf("vstore: record length %d exceeds %d-byte bound", n, maxRecordBytes)
	}
	if len(data) < recordHeaderBytes+n {
		return rec, 0, fmt.Errorf("vstore: truncated record payload (%d of %d bytes)", len(data)-recordHeaderBytes, n)
	}
	payload := data[recordHeaderBytes : recordHeaderBytes+n]
	want := binary.LittleEndian.Uint32(data[4:8])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return rec, 0, fmt.Errorf("vstore: record checksum mismatch (got %08x, want %08x)", got, want)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("vstore: decode record payload: %w", err)
	}
	return rec, recordHeaderBytes + n, nil
}
