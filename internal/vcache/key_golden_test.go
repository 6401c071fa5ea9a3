package vcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"veriopt/internal/dataset"
	"veriopt/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/key_golden.json from this tree's KeyOfFunc")

type keyGolden struct {
	Text string `json:"text"`
	Key  string `json:"key_sha256"`
}

// TestKeyOfFuncMatchesGolden pins the bytes of KeyOfFunc. They are a
// persisted format: vstore compares full keys at read time, the
// coordinator routes on their fingerprint, and coordinator and replica
// must derive the same key from the same text. The golden was written by
// this test (-update) at the commit that still built keys by clone,
// renumber, print and fingerprint; a store filled by that code keeps
// hitting only while this test passes. Regenerating it is a format
// change.
func TestKeyOfFuncMatchesGolden(t *testing.T) {
	const path = "testdata/key_golden.json"
	if *updateGolden {
		samples, err := dataset.Generate(dataset.Config{Seed: 5, N: datasetTemplates, SkipVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		var out []keyGolden
		for _, text := range handWrittenKeyTexts {
			out = append(out, keyGolden{Text: text, Key: keySum(t, text)})
		}
		for _, s := range samples {
			for _, text := range []string{s.O0Text, s.RefText} {
				out = append(out, keyGolden{Text: text, Key: keySum(t, text)})
			}
		}
		blob, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []keyGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) < 2*datasetTemplates {
		t.Fatalf("golden has %d entries, want two per dataset template", len(want))
	}
	for i, w := range want {
		if got := keySum(t, w.Text); got != w.Key {
			t.Errorf("entry %d: key sha256 %s, golden %s\n%s", i, got, w.Key, w.Text)
		}
	}
}

// handWrittenKeyTexts add what the generated corpus prints away: named
// values and blocks, comments, attribute groups, a declaration, a
// switch, undef/poison/global operands and a void call.
var handWrittenKeyTexts = []string{
	`define dso_local i32 @g(i32 noundef %x) #0 {
entry:
  %c = icmp eq i32 %x, 0 ; compare
  br i1 %c, label %a, label %b

a:
  br label %join

b:
  %m = mul nuw nsw i32 %x, 3
  br label %join

join:
  %r = phi i32 [ 7, %a ], [ %m, %b ]
  ret i32 %r
}
`,
	`declare void @ext(i32)
declare i32 @pure(i32) readnone

define void @h(i32 noundef %v, ptr %p) {
  %slot = alloca i32, align 4
  store i32 %v, ptr %slot, align 4
  %l = load i32, ptr %slot, align 4
  call void @ext(i32 %l)
  %q = call i32 @pure(i32 undef)
  store i32 poison, ptr @glob
  store i32 %q, ptr %p
  ret void
}
`,
	`define i8 @sw(i8 %v, i1 %f) {
top:
  switch i8 %v, label %d [ i8 0, label %z i8 -1, label %o ]

z:
  %s = select i1 %f, i8 1, i8 2
  %e = sdiv exact i8 %s, 1
  ret i8 %e

o:
  %w = zext i1 true to i8
  %fr = freeze i8 %w
  ret i8 %fr

d:
  unreachable
}
`,
}

func keySum(t *testing.T, text string) string {
	t.Helper()
	f, err := ir.ParseFunc(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	sum := sha256.Sum256([]byte(KeyOfFunc(f)))
	return hex.EncodeToString(sum[:])
}

// datasetTemplates is the size of dataset's template registry
// (pinned by dataset's TestOneRoundCoversEveryTemplate): a corpus of
// k*datasetTemplates samples holds every template k times.
const datasetTemplates = 36
