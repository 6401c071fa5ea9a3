package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"veriopt/internal/vcache"
)

func TestEmittedLinesParseAsJSON(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.Emit(Event{Kind: "run_start", Note: "3 stages"})
	r.Emit(Event{Kind: "stage_start", Stage: "S1"})
	r.Emit(Event{
		Kind: "stage_end", Stage: "S1", Steps: 40, WallMs: 12.5,
		Verdicts: map[string]uint64{"equivalent": 7, "semantic_error": 2},
		Cache:    &CacheStats{Hits: 5, Misses: 4},
		Reward:   Summarize([]float64{0.1, 0.9, 0.5}),
	})
	r.Emit(Event{Kind: "run_end"})

	sc := bufio.NewScanner(&buf)
	var kinds []string
	lastSeq := uint64(0)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != 4 || kinds[0] != "run_start" || kinds[2] != "stage_end" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestOmitEmptySections(t *testing.T) {
	var buf bytes.Buffer
	New(&buf).Emit(Event{Kind: "eval"})
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"stage", "verdicts", "cache", "reward", "note", "fields", "wall_ms", "steps"} {
		if _, ok := raw[k]; ok {
			t.Errorf("empty section %q serialized: %v", k, raw[k])
		}
	}
	for _, k := range []string{"seq", "kind", "elapsed_ms"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("required field %q missing", k)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: "run_start"}) // must not panic
}

func TestSummarize(t *testing.T) {
	if Summarize(nil) != nil {
		t.Fatal("empty series must summarize to nil")
	}
	s := Summarize([]float64{3, 1, 2})
	if s.Count != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 || s.P50 != 2 || s.Last != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestDeltas(t *testing.T) {
	var a, b vcache.Stats
	b.ByVerdict[0] = 5
	a.ByVerdict[0] = 2
	if d, _ := Delta(a, b); d["equivalent"] != 3 || len(d) != 4 {
		t.Fatalf("verdict delta = %v", d)
	}
	b.Hits, a.Hits, b.Misses, a.Misses = 10, 7, 4, 4
	if _, c := Delta(a, b); c == nil || c.Hits != 3 || c.Misses != 0 {
		t.Fatalf("cache delta = %+v", c)
	}
	if d, c := Delta(b, b); d != nil || c != nil {
		t.Fatalf("a zero delta must be nil: %v, %+v", d, c)
	}
}

func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				r.Emit(Event{Kind: "eval"})
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v", err)
		}
		n++
	}
	if n != 200 {
		t.Fatalf("lines = %d, want 200", n)
	}
}
