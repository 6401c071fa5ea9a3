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

// TestCacheStat: `veriopt cache stat` reports an existing store and
// refuses a directory that is not there — it used to make a store of
// a mistyped path and report "0 entries".
func TestCacheStat(t *testing.T) {
	tmp := t.TempDir()
	typo := filepath.Join(tmp, "verdcits")
	if err := cmdCache([]string{"stat", "-store-dir", typo}); err == nil {
		t.Error("stat on a missing directory succeeded")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("stat on a missing directory left %v behind", left)
	}
	for _, args := range [][]string{nil, {"compact", "-store-dir", tmp}, {"stat"}} {
		if err := cmdCache(args); err == nil {
			t.Errorf("cache %q succeeded, want a usage error", args)
		}
	}

	dir := filepath.Join(tmp, "verdicts")
	st, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(vcache.Key{Src: "a", Dst: "b"}, alive.Result{Verdict: alive.Equivalent}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(tmp, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = cmdCache([]string{"stat", "-store-dir", dir})
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vstore: 1 entries in 1 segments", "entries      1\n", "segments     1\n", "live_bytes   "} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("stat output lacks %q:\n%s", want, blob)
		}
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
