package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/vstore"
)

// smokePair builds the i-th distinct verify query: add-then-subtract
// of a unique constant against the identity. Every i is a different
// cache key, so n pairs exercise n real verifications.
func smokePair(i int) (src, tgt string) {
	src = fmt.Sprintf(`define i32 @f(i32 noundef %%0) {
  %%2 = add i32 %%0, %d
  %%3 = sub i32 %%2, %d
  ret i32 %%3
}
`, i+1, i+1)
	tgt = `define i32 @f(i32 noundef %0) {
  ret i32 %0
}
`
	return src, tgt
}

// TestStoreSmoke is the acceptance drill for the tiered verdict
// store: a serve process fills a -store-dir with more verdicts than
// its hot tier holds, restarts on the same directory, and answers
// every previously-verified pair from disk with zero solver runs —
// while the in-memory tier stays under its entry bound throughout.
func TestStoreSmoke(t *testing.T) {
	dir := t.TempDir()
	const (
		hotBound = 8
		pairs    = 24 // 3x the hot tier: most verdicts live only on disk
	)

	// Phase 1: a cold server proves every pair the expensive way; the
	// verdicts write through to the store as they are produced.
	st1, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm := oracle.NewStack(oracle.Config{CacheEntries: hotBound, Backing: st1})
	_, url, cancel, errc := start(t, Config{Workers: 2, Oracle: warm})
	for i := 0; i < pairs; i++ {
		src, tgt := smokePair(i)
		code, body, _ := postJSON(t, http.DefaultClient, url+"/v1/verify", VerifyRequest{Src: src, Tgt: tgt})
		if code != http.StatusOK {
			t.Fatalf("pair %d: status %d: %s", i, code, body)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Verdict != alive.Equivalent.String() {
			t.Fatalf("pair %d: verdict %q", i, vr.Verdict)
		}
	}
	drain(t, cancel, errc)
	if s := warm.Engine.Stats(); s.Entries > hotBound {
		t.Fatalf("hot tier holds %d entries, bound is %d", s.Entries, hotBound)
	}
	if s := st1.Stats(); s.Entries != pairs {
		t.Fatalf("store holds %d verdicts, want %d", s.Entries, pairs)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart on the same directory behind a base verifier
	// that fails the test if consulted — every answer must come from
	// the reopened store (or the hot tier it repopulates).
	st2, err := vstore.Open(dir, vstore.Config{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	cold := oracle.NewStack(oracle.Config{
		CacheEntries: hotBound,
		Backing:      st2,
		Base: oracle.Func(func(ctx context.Context, s, d *ir.Function, o alive.Options) alive.Result {
			t.Error("live solver consulted despite durable store")
			return alive.Result{Verdict: alive.Inconclusive}
		}),
	})
	_, url2, cancel2, errc2 := start(t, Config{Workers: 2, Oracle: cold})
	defer drain(t, cancel2, errc2)
	for i := 0; i < pairs; i++ {
		src, tgt := smokePair(i)
		code, body, _ := postJSON(t, http.DefaultClient, url2+"/v1/verify", VerifyRequest{Src: src, Tgt: tgt})
		if code != http.StatusOK {
			t.Fatalf("restarted pair %d: status %d: %s", i, code, body)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if vr.Verdict != alive.Equivalent.String() {
			t.Fatalf("restarted pair %d: verdict %q", i, vr.Verdict)
		}
	}

	cs := cold.Engine.Stats()
	if cs.Misses != 0 {
		t.Fatalf("restarted server ran the solver %d times, want 0", cs.Misses)
	}
	if cs.Hits != pairs || cs.Promotions != pairs {
		t.Fatalf("restart stats: %+v (want %d hits, all promotions)", cs, pairs)
	}
	if cs.Entries > hotBound {
		t.Fatalf("hot tier holds %d entries after restart, bound is %d", cs.Entries, hotBound)
	}
	ss := st2.Stats()
	if hits := ss.Counters()["hits"]; hits < uint64(pairs) {
		t.Fatalf("store served %d hits, want >= %d", hits, pairs)
	}

	// /metrics exports the store section alongside the cache one.
	resp, err := http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb bytes.Buffer
	if _, err := mb.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	metrics := mb.String()
	for _, want := range []string{
		fmt.Sprintf(`veriopt_vstore_entries %d`, pairs),
		"veriopt_vstore_segments ",
		"veriopt_vstore_live_bytes ",
		`veriopt_vstore_total{counter="hits"}`,
		`veriopt_vcache_total{counter="promotions"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
