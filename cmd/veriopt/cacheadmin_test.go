package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/vcache"
	"veriopt/internal/vstore"
)

// A snapshot as the last writer of the format produced it: header
// (its "entries" count is informational), then one verdict per line.
const (
	fixHeader = `{"format":"veriopt-vcache","version":1,"entries":2}`
	fixEquiv  = `{"src":"define i32 @f(i32 noundef %x) {\n%r = add i32 %x, 0\nret i32 %r\n}","dst":"define i32 @f(i32 noundef %x) {\nret i32 %x\n}","opts":{"MaxPaths":512,"MaxSteps":4096,"SolverBudget":200000,"FreshSolver":false},"res":{"Verdict":0,"Diag":"","Counterexample":null,"SolverConflicts":3,"Canceled":false}}`
	fixWrong  = `{"src":"define i32 @f(i32 noundef %x) {\n%r = add i32 %x, 0\nret i32 %r\n}","dst":"define i32 @f(i32 noundef %x) {\n%r = add i32 %x, 1\nret i32 %r\n}","opts":{"MaxPaths":512,"MaxSteps":4096,"SolverBudget":200000,"FreshSolver":false},"res":{"Verdict":1,"Diag":"ERROR: Value mismatch","Counterexample":{"x":7},"SolverConflicts":12,"Canceled":false}}`
	fixCancel = `{"src":"a","dst":"b","opts":{"MaxPaths":512,"MaxSteps":4096,"SolverBudget":200000,"FreshSolver":false},"res":{"Verdict":3,"Diag":"canceled","Counterexample":null,"SolverConflicts":0,"Canceled":true}}`
)

var (
	fixOpts = alive.Options{MaxPaths: 512, MaxSteps: 4096, SolverBudget: 200000}
	fixSrc  = "define i32 @f(i32 noundef %x) {\n%r = add i32 %x, 0\nret i32 %r\n}"
	fixKeys = []vcache.Key{
		{Src: fixSrc, Dst: "define i32 @f(i32 noundef %x) {\nret i32 %x\n}", Opts: fixOpts},
		{Src: fixSrc, Dst: "define i32 @f(i32 noundef %x) {\n%r = add i32 %x, 1\nret i32 %r\n}", Opts: fixOpts},
	}
	fixResults = []alive.Result{
		{Verdict: alive.Equivalent, SolverConflicts: 3},
		{Verdict: alive.SemanticError, Diag: "ERROR: Value mismatch",
			Counterexample: map[string]uint64{"x": 7}, SolverConflicts: 12},
	}
)

func lines(ls ...string) string { return strings.Join(ls, "\n") + "\n" }

func TestReadSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     int    // entries delivered
		errHas   string // "" = no error
	}{
		{"good", lines(fixHeader, fixEquiv, fixWrong), 2, ""},
		{"canceled entry skipped", lines(fixHeader, fixEquiv, "", fixCancel, fixWrong), 2, ""},
		{"empty", "", 0, "empty snapshot"},
		{"header not json", lines("not json"), 0, "bad snapshot header"},
		{"wrong format", lines(`{"format":"other","version":1}`, fixEquiv), 0, `format "other"`},
		{"wrong version", lines(`{"format":"veriopt-vcache","version":2}`, fixEquiv), 0, "version 2"},
		{"malformed entry", lines(fixHeader, fixEquiv, "not json", fixWrong), 1, "snapshot entry 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var keys []vcache.Key
			var results []alive.Result
			n, err := readSnapshot(strings.NewReader(tc.in), func(k vcache.Key, r alive.Result) error {
				keys, results = append(keys, k), append(results, r)
				return nil
			})
			if n != tc.want || len(keys) != tc.want {
				t.Errorf("delivered %d (callback saw %d), want %d", n, len(keys), tc.want)
			}
			if tc.errHas == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if !reflect.DeepEqual(keys, fixKeys[:tc.want]) || !reflect.DeepEqual(results, fixResults[:tc.want]) {
					t.Errorf("decoded\n%+v\n%+v\nwant\n%+v\n%+v", keys, results, fixKeys[:tc.want], fixResults[:tc.want])
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %v, want one containing %q", err, tc.errHas)
			}
		})
	}
}

// TestCacheMigrate runs `veriopt cache migrate` end to end: the
// fixture's verdicts must come back out of the re-opened store exactly
// as the snapshot held them, and a malformed snapshot must be refused
// with an error that names the entry.
func TestCacheMigrate(t *testing.T) {
	tmp := t.TempDir()
	from, dir := filepath.Join(tmp, "old.jsonl"), filepath.Join(tmp, "store")
	if err := os.WriteFile(from, []byte(lines(fixHeader, fixEquiv, fixCancel, fixWrong)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCache([]string{"migrate", "-from", from, "-store-dir", dir}); err != nil {
		t.Fatal(err)
	}
	st, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Entries != 2 {
		t.Errorf("store holds %d entries, want 2 (the canceled one is never imported)", s.Entries)
	}
	for i, k := range fixKeys {
		got, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("key %d: found=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(got, fixResults[i]) {
			t.Errorf("key %d: got %+v, want %+v", i, got, fixResults[i])
		}
	}

	bad := filepath.Join(tmp, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(lines(fixHeader, fixEquiv, `{"src":`)), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdCache([]string{"migrate", "-from", bad, "-store-dir", filepath.Join(tmp, "store2")})
	if err == nil || !strings.Contains(err.Error(), "snapshot entry 2") {
		t.Errorf("malformed snapshot: error %v, want one naming entry 2", err)
	}
}

func TestSplitReplicas(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1/, http://b:2// ,,http://c:3", []string{"http://a:1", "http://b:2", "http://c:3"}},
	} {
		if got := splitReplicas(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitReplicas(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
