package vcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"veriopt/internal/alive"
)

// TestFingerprintIdentity pins the shared fingerprint's bytes: SHA-256
// over each text's length (8 bytes, little-endian) and bytes, then the
// options as 8-byte little-endian integers. Nothing persists the
// digest, so this pins a definition inside one build, not a format a
// store or a peer depends on; a change to it should still be a choice.
func TestFingerprintIdentity(t *testing.T) {
	k := Key{Src: "define i32 @f()", Dst: "ret i32 0", Opts: alive.Options{MaxPaths: 512, MaxSteps: 4096, SolverBudget: 200000}}
	const preimage = "\x0f\x00\x00\x00\x00\x00\x00\x00define i32 @f()" +
		"\x09\x00\x00\x00\x00\x00\x00\x00ret i32 0" +
		"\x00\x02\x00\x00\x00\x00\x00\x00" + // MaxPaths 512
		"\x00\x10\x00\x00\x00\x00\x00\x00" + // MaxSteps 4096
		"\x40\x0d\x03\x00\x00\x00\x00\x00" // SolverBudget 200000
	const digest = "24cb28872fd8929f61d5fbb949ed45f6d0eefc82bbb4152c0116e924cca8f77b"
	if got := k.Fingerprint(); got != sha256.Sum256([]byte(preimage)) || hex.EncodeToString(got[:]) != digest {
		t.Fatalf("Fingerprint = %x, want %s = sha256(%q)", got, digest, preimage)
	}
	if got := fingerprint([]byte(k.Src), []byte(k.Dst), k.Opts); hex.EncodeToString(got[:]) != digest {
		t.Fatalf("fingerprint of the bytes = %x, want %s", got, digest)
	}
}

// TestFingerprintIsInjective: keys that differ in their bytes, however
// slightly, must not share a digest, from the strings and from the
// bytes. JSON quoting, the digest's earlier preimage, read every
// invalid UTF-8 byte as \ufffd, so the first two keys once collided.
func TestFingerprintIsInjective(t *testing.T) {
	le := func(n uint64) string { return string(binary.LittleEndian.AppendUint64(nil, n)) }
	def := alive.DefaultOptions()
	pairs := [][2]Key{
		{{Src: "\xff"}, {Src: "\xfe"}},
		{{Src: "x\xffy", Dst: "d", Opts: def}, {Src: "x\xfey", Dst: "d", Opts: def}},
		{{Src: "ab", Dst: "c"}, {Src: "a", Dst: "bc"}},
		{{Src: "", Dst: "ab"}, {Src: "ab", Dst: ""}},
		// A text that spells the fields after it, in the encoding and
		// in JSON.
		{{Src: "a" + le(1) + "b"}, {Src: "a", Dst: "b"}},
		{{Src: "s" + le(1) + "d" + le(512) + le(4096) + le(200000)}, {Src: "s", Dst: "d", Opts: def}},
		{{Src: `a","Dst":"b`}, {Src: "a", Dst: "b"}},
	}
	for i, p := range pairs {
		a, b := p[0], p[1]
		if a.Fingerprint() == b.Fingerprint() {
			t.Errorf("pair %d: Key.Fingerprint of %q, %q and of %q, %q collide", i, a.Src, a.Dst, b.Src, b.Dst)
		}
		if fingerprint([]byte(a.Src), []byte(a.Dst), a.Opts) == fingerprint([]byte(b.Src), []byte(b.Dst), b.Opts) {
			t.Errorf("pair %d: the fingerprints of the bytes %q, %q and %q, %q collide", i, a.Src, a.Dst, b.Src, b.Dst)
		}
	}
}

// TestFingerprintSeparatesKeys: any component of the key — source,
// target, or the verification limits — must change the fingerprint.
func TestFingerprintSeparatesKeys(t *testing.T) {
	base := Key{Src: "s", Dst: "d", Opts: alive.DefaultOptions()}
	vary := []Key{
		{Src: "s2", Dst: "d", Opts: base.Opts},
		{Src: "s", Dst: "d2", Opts: base.Opts},
		{Src: "s", Dst: "d", Opts: alive.Options{MaxPaths: 1, MaxSteps: 1, SolverBudget: 1}},
	}
	seen := map[[sha256.Size]byte]bool{base.Fingerprint(): true}
	for i, k := range vary {
		fp := k.Fingerprint()
		if seen[fp] {
			t.Fatalf("variant %d collides with an earlier key", i)
		}
		seen[fp] = true
	}
}

// TestEveryOptionIsKeyed walks alive.Options by reflection: changing any
// one field must change the fingerprint, from the strings and from the
// bytes alike, and leave both equal to the reference. Fingerprint
// appends the fields by name, so a field added to alive.Options and not
// to it fails here, not silently in a cache that serves a verdict
// minted under other limits.
func TestEveryOptionIsKeyed(t *testing.T) {
	base := Key{Src: "s", Dst: "d", Opts: alive.DefaultOptions()}
	fields := reflect.TypeOf(base.Opts)
	if fields.NumField() == 0 {
		t.Fatal("alive.Options has no fields; the test is vacuous")
	}
	for i := 0; i < fields.NumField(); i++ {
		k := base
		v := reflect.ValueOf(&k.Opts).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		default:
			t.Fatalf("alive.Options.%s is a %s; teach this test to vary it", fields.Field(i).Name, v.Kind())
		}
		checkFingerprint(t, k)
		if k.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing alive.Options.%s leaves Key.Fingerprint as it was", fields.Field(i).Name)
		}
		if fingerprint([]byte(k.Src), []byte(k.Dst), k.Opts) == fingerprint([]byte(base.Src), []byte(base.Dst), base.Opts) {
			t.Errorf("changing alive.Options.%s leaves the fingerprint of the bytes as it was", fields.Field(i).Name)
		}
	}
}
