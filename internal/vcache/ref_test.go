package vcache

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

// refFingerprint is Key.Fingerprint as it was while it called
// encoding/json: the definition of the digest's bytes. Every store on
// disk was indexed under it and every ring routes by it, so the
// hand-appended JSON in Fingerprint must equal it on every key, not
// only on the ones the corpus produces.
func refFingerprint(k Key) [sha256.Size]byte {
	blob, err := json.Marshal(k)
	if err != nil {
		panic("vcache: marshal key: " + err.Error())
	}
	return sha256.Sum256(blob)
}

// checkFingerprint holds both entries to the reference: Key.Fingerprint,
// and fingerprint, which Do reads off the texts' bytes.
func checkFingerprint(t *testing.T, k Key) {
	t.Helper()
	want := refFingerprint(k)
	if got := k.Fingerprint(); got != want {
		blob, _ := json.Marshal(k)
		t.Fatalf("Fingerprint = %x, reference %x = sha256(%s)", got, want, blob)
	}
	if got := fingerprint([]byte(k.Src), []byte(k.Dst), k.Opts); got != want {
		blob, _ := json.Marshal(k)
		t.Fatalf("fingerprint of the bytes = %x, reference %x = sha256(%s)", got, want, blob)
	}
}

// escaperKeys aim at the string escaper: each byte class json.Marshal
// treats specially, at the start, middle and end of a text, plus the
// Options encodings (zero, negative, extreme).
func escaperKeys() []Key {
	def := alive.DefaultOptions()
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
// from the bytes, against its json.Marshal definition over every
// key_golden.json text, every dataset template at two seeds, and the
// hand table above (JSON escapes, invalid UTF-8, U+2028 and U+2029).
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
	for _, k := range escaperKeys() {
		checkFingerprint(t, k)
	}

	// A quote in a text must not be able to close the string and forge
	// the next field.
	forged := Key{Src: `a","Dst":"b`}
	honest := Key{Src: "a", Dst: "b"}
	checkFingerprint(t, forged)
	checkFingerprint(t, honest)
	if forged.Fingerprint() == honest.Fingerprint() {
		t.Fatal("a text containing quoted JSON collides with the key it spells")
	}
}

func FuzzFingerprintVsReference(f *testing.F) {
	for _, k := range escaperKeys() {
		f.Add(k.Src, k.Dst, k.Opts.MaxPaths, k.Opts.MaxSteps, k.Opts.SolverBudget)
	}
	f.Fuzz(func(t *testing.T, src, dst string, paths, steps, budget int) {
		checkFingerprint(t, Key{Src: src, Dst: dst,
			Opts: alive.Options{MaxPaths: paths, MaxSteps: steps, SolverBudget: budget}})
	})
}
