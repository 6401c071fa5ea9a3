package vcache

import (
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"veriopt/internal/alive"
)

// TestFingerprintIdentity pins the shared fingerprint's definition:
// sha256 over the key's JSON encoding. vstore indexes under it and the
// cluster coordinator hashes it onto the ring, so its bytes are a
// cross-component (and, for vstore, cross-restart) contract.
func TestFingerprintIdentity(t *testing.T) {
	k := Key{Src: "define i32 @f()", Dst: "ret i32 0", Opts: alive.DefaultOptions()}
	blob, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := sha256.Sum256(blob); k.Fingerprint() != want {
		t.Fatal("Fingerprint diverged from sha256(json(key))")
	}
	if k.Fingerprint() != k.Fingerprint() {
		t.Fatal("Fingerprint is not deterministic")
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
// writes the fields by name, so a field added to alive.Options and not
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
