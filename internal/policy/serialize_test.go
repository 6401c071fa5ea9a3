package policy

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// mutateModelFile round-trips a freshly initialized model through its
// JSON form, applies f to the raw document, and re-unmarshals.
func mutateModelFile(t *testing.T, f func(doc map[string]json.RawMessage)) error {
	t.Helper()
	blob, err := json.Marshal(New(CapQwen3B, 5))
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	blob, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return json.Unmarshal(blob, &Model{})
}

// TestUnmarshalRejectsInnerShapeMismatch covers the shapes the outer
// length checks miss: noise rows vs HashFeatures, and the diagnosis
// head's class and subclass matrices. A model file whose inner rows
// are truncated must fail loudly, not panic at first inference.
func TestUnmarshalRejectsInnerShapeMismatch(t *testing.T) {
	set := func(key, val string) func(map[string]json.RawMessage) {
		return func(doc map[string]json.RawMessage) { doc[key] = json.RawMessage(val) }
	}
	truncateRow := func(key string) func(map[string]json.RawMessage) {
		return func(doc map[string]json.RawMessage) {
			var rows [][]float64
			if err := json.Unmarshal(doc[key], &rows); err != nil {
				t.Fatal(err)
			}
			rows[0] = rows[0][:len(rows[0])-1]
			blob, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			doc[key] = blob
		}
	}
	cases := map[string]func(map[string]json.RawMessage){
		"noise row too short":        truncateRow("n"),
		"diag class row too short":   truncateRow("diag_w"),
		"diag subclass too short":    truncateRow("diag_sub"),
		"diag head missing":          set("diag_w", "[]"),
		"diag subclasses missing":    set("diag_sub", "null"),
		"diag head extra class rows": set("diag_w", "[[],[],[],[],[],[],[]]"),
	}
	for name, mutate := range cases {
		if err := mutateModelFile(t, mutate); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// The identity mutation must still load — the harness itself is
	// not what rejects the cases above.
	if err := mutateModelFile(t, func(map[string]json.RawMessage) {}); err != nil {
		t.Errorf("unmutated model file rejected: %v", err)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/model_golden.json from this tree's MarshalJSON")

// TestModelBytesMatchGolden pins what `train -save` and every
// checkpoint write: json.Marshal of a fixed-seed model, byte for byte.
// The golden was written by this test (-update) at the commit before
// the B/S/P/N block moved into policy.Linear.
func TestModelBytesMatchGolden(t *testing.T) {
	const path = "testdata/model_golden.json"
	got, err := json.Marshal(New(CapQwen3B, 7))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("model bytes changed:\n got %s\nwant %s", got, want)
	}
}
