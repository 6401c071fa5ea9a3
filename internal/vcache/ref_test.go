package vcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

// refFingerprint is the definition of Key.Fingerprint's bytes, written
// apart from it: SHA-256 fed each text's length and bytes, then each
// option, through binary.Write. The digest is never persisted (vstore
// fingerprints its stored keys at Open), so this definition binds
// nothing on disk; Fingerprint, which appends the same bytes into a
// stack buffer, must still equal it on every key, not only on the ones
// the corpus produces.
func refFingerprint(k Key) [sha256.Size]byte {
	h := sha256.New()
	for _, v := range []any{
		uint64(len(k.Src)), []byte(k.Src),
		uint64(len(k.Dst)), []byte(k.Dst),
		int64(k.Opts.MaxPaths), int64(k.Opts.MaxSteps), int64(k.Opts.SolverBudget),
	} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic("vcache: encode key: " + err.Error())
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// checkFingerprint holds both entries to the reference: Key.Fingerprint,
// and fingerprint, which Do reads off the texts' bytes.
func checkFingerprint(t *testing.T, k Key) {
	t.Helper()
	want := refFingerprint(k)
	if got := k.Fingerprint(); got != want {
		t.Fatalf("Fingerprint of %q, %q, %+v = %x, reference %x", k.Src, k.Dst, k.Opts, got, want)
	}
	if got := fingerprint([]byte(k.Src), []byte(k.Dst), k.Opts); got != want {
		t.Fatalf("fingerprint of the bytes %q, %q, %+v = %x, reference %x", k.Src, k.Dst, k.Opts, got, want)
	}
}

// edgeKeys are keys the corpus does not produce: every byte class that
// JSON quoting, the digest's earlier preimage, treated specially
// (quote, backslash, each control byte, < > &, U+2028/9, lone and
// truncated high bytes, surrogates, overlongs), at the start, middle
// and end of a text; texts that end where the 2 KB stack buffer does
// or run past it; and the Options encodings (zero, negative, extreme).
func edgeKeys() []Key {
	def := alive.DefaultOptions()
	// fill is the text length at which an encoded key with a one-byte
	// Dst exactly fills the stack buffer.
	const fill = 2048 - 8 - 8 - 1 - 3*8
	texts := []string{
		"", " ", "plain", `"`, `\`, `a"b\c`, `\"`, `"\`, "<", ">", "&", "a<b>c&d", "\x7f",
		"\u2028", "\u2029", "x\u2028y\u2029z", "\u2027\u202a", "\ufffd", "é世\U0001F600",
		"\xff", "a\xffb", "\xff\xfe", "\xe4\xb8", "\xe2\x80", "\xc3", "tail\xe2",
		"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc0\x80",
		strings.Repeat("a\n", 1500), strings.Repeat(`"`, 3000), strings.Repeat("\xff", 700),
	}
	for c := 0; c < 0x20; c++ {
		texts = append(texts, string(rune(c)), "a"+string(rune(c))+"b")
	}
	texts = append(texts, "\xfe", strings.Repeat("a", fill), strings.Repeat("a", fill+1), strings.Repeat("\xff", 3000))
	var keys []Key
	for i, s := range texts {
		keys = append(keys,
			Key{Src: s, Dst: "d", Opts: def},
			Key{Src: "s", Dst: s, Opts: def},
			Key{Src: s, Dst: texts[(i+1)%len(texts)], Opts: def})
	}
	for _, o := range []alive.Options{
		{},
		{MaxPaths: -1, MaxSteps: -4096, SolverBudget: -1 << 62},
		{MaxPaths: 1<<63 - 1, MaxSteps: 1, SolverBudget: 0},
		{MaxPaths: 1, MaxSteps: 1 << 40, SolverBudget: -1 << 63},
	} {
		keys = append(keys, Key{Src: "s", Dst: "d", Opts: o}, Key{Opts: o})
	}
	return keys
}

// TestFingerprintMatchesReference runs the digest, from the strings and
// from the bytes, against its reference over every key_golden.json
// text, every dataset template at two seeds, and the edge keys above.
func TestFingerprintMatchesReference(t *testing.T) {
	var texts []string
	blob, err := os.ReadFile("testdata/key_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []keyGolden
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		f, err := ir.ParseFunc(g.Text)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, g.Text, KeyOfFunc(f))
	}
	for _, seed := range []int64{5, 12} {
		samples, err := dataset.Generate(dataset.Config{Seed: seed, N: datasetTemplates, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			texts = append(texts, KeyOfFunc(s.O0), KeyOfFunc(s.Ref))
		}
	}
	if len(texts) < 4*datasetTemplates {
		t.Fatalf("only %d corpus texts", len(texts))
	}
	for i := 0; i+1 < len(texts); i++ {
		checkFingerprint(t, Key{Src: texts[i], Dst: texts[i+1], Opts: alive.DefaultOptions()})
	}
	for _, k := range edgeKeys() {
		checkFingerprint(t, k)
	}
}

func FuzzFingerprintVsReference(f *testing.F) {
	for _, k := range edgeKeys() {
		f.Add(k.Src, k.Dst, k.Opts.MaxPaths, k.Opts.MaxSteps, k.Opts.SolverBudget)
	}
	f.Fuzz(func(t *testing.T, src, dst string, paths, steps, budget int) {
		checkFingerprint(t, Key{Src: src, Dst: dst,
			Opts: alive.Options{MaxPaths: paths, MaxSteps: steps, SolverBudget: budget}})
	})
}
