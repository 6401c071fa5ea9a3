package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/vcache"
)

// Span names. Each is a seam the program already exposes; the span tree
// of one op is fixed by which seam sits inside which:
//
//	op ⊃ oracle ⊃ { vstore.get, vstore.put, alive,
//	                cluster ⊃ replica ⊃ alive }
const (
	spanOp      = "op"         // the client's (or search goroutine's) view of one op
	spanOracle  = "oracle"     // server.Config.Oracle / seqopt.SearchConfig.Oracle
	spanGet     = "vstore.get" // oracle.Config.Backing
	spanPut     = "vstore.put" // oracle.Config.Backing
	spanAlive   = "alive"      // oracle.Config.Base
	spanCluster = "cluster"    // oracle.Config.Remote on the coordinator
	spanReplica = "replica"    // server.Config.Oracle on a replica
)

// spanParent is the seam each seam sits directly inside. alive sits in
// replica when there is one (cluster-cold) and in oracle otherwise.
var spanParent = map[string][]string{
	spanOracle:  {spanOp},
	spanGet:     {spanOracle},
	spanPut:     {spanOracle},
	spanCluster: {spanOracle},
	spanReplica: {spanCluster},
	spanAlive:   {spanReplica, spanOracle},
}

// span is one timed interval at a seam. key is the source function's
// name, which every seam can see and which is unique per corpus sample;
// it plays the part of a request id until the program carries one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Op     int    `json:"op"` // op index; -1 for work outside any op (prewarm leftovers)
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"` // since tracer start
	End    int64  `json:"end_ns"`

	self int64 // filled by link: End-Start minus the part children cover
}

// tracer collects spans from the benchmark's own shims. A nil *tracer
// inserts no shims: every wrap method returns its argument unchanged,
// which is how the untraced run and the traced run share set-up code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	obsBuf lockedBuffer // obs "request" events from server.Config.Obs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, key string, op int, start, end time.Time) {
	s := span{Name: name, Key: key, Op: op, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far (set-up traffic such as the
// serve-warm prewarm).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.obsBuf.reset()
}

// ops wraps the system's exec so each op is recorded as a root span.
func (t *tracer) ops(sys *system) func(client, i int) bool {
	if t == nil {
		return sys.exec
	}
	return func(c, i int) bool {
		start := time.Now()
		ok := sys.exec(c, i)
		t.add(spanOp, sys.opKey(i), i, start, time.Now())
		return ok
	}
}

// oracle wraps o so each Verify is recorded as a span called name.
func (t *tracer) oracle(name string, o oracle.Oracle) oracle.Oracle {
	if t == nil {
		return o
	}
	return oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		start := time.Now()
		res := o.Verify(ctx, src, tgt, opts)
		t.add(name, src.Name(), -1, start, time.Now())
		return res
	})
}

// remote wraps the coordinator.
func (t *tracer) remote(r oracle.Remote) oracle.Remote {
	if t == nil {
		return r
	}
	return remoteShim{t: t, next: r}
}

type remoteShim struct {
	t    *tracer
	next oracle.Remote
}

func (s remoteShim) VerifyRemote(ctx context.Context, src, tgt *ir.Function, opts alive.Options) (alive.Result, error) {
	start := time.Now()
	res, err := s.next.VerifyRemote(ctx, src, tgt, opts)
	s.t.add(spanCluster, src.Name(), -1, start, time.Now())
	return res, err
}

// backing wraps the verdict store as the cache's cold tier.
func (t *tracer) backing(b vcache.Backing) vcache.Backing {
	if t == nil {
		return b
	}
	return backingShim{t: t, next: b}
}

type backingShim struct {
	t    *tracer
	next vcache.Backing
}

func (s backingShim) Get(k vcache.Key) (alive.Result, bool, error) {
	start := time.Now()
	res, ok, err := s.next.Get(k)
	s.t.add(spanGet, funcNameOf(k.Src), -1, start, time.Now())
	return res, ok, err
}

func (s backingShim) Put(k vcache.Key, res alive.Result) error {
	start := time.Now()
	err := s.next.Put(k, res)
	s.t.add(spanPut, funcNameOf(k.Src), -1, start, time.Now())
	return err
}

// funcNameOf pulls the function name out of a cache key's source text
// ("define i32 @name(...").
func funcNameOf(text string) string {
	_, rest, ok := strings.Cut(text, "@")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "(")
	return name
}

// recorder is the server.Config.Obs sink: the program's own "request"
// events carry the queue wait, which no outside seam can see.
func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return obs.New(&t.obsBuf)
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) reset() {
	b.mu.Lock()
	b.buf.Reset()
	b.mu.Unlock()
}

// queueWaitsUs decodes the queue wait of every /v1/verify request event
// the servers emitted.
func (t *tracer) queueWaitsUs() ([]float64, error) {
	t.obsBuf.mu.Lock()
	defer t.obsBuf.mu.Unlock()
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(t.obsBuf.buf.Bytes()))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace: decode obs event: %w", err)
		}
		if ev.Kind == "request" && ev.Stage == "/v1/verify" {
			out = append(out, ev.Fields["queue_wait_ms"]*1000)
		}
	}
	return out, sc.Err()
}

// link turns the flat span list into trees: every span gets an id, the
// enclosing span of its parent seam with the same key as parent, the op
// index of its root, and its self time. Spans are returned ordered by
// start. A span whose parent cannot be found (a hedged attempt that
// outlived its op) stays a root with op -1 and is not counted in any
// layer's self time.
func link(spans []span) []span {
	// Enclosing spans first among equal starts, so parents always precede
	// their children.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	type ref struct{ name, key string }
	by := map[ref][]int{} // indices into spans, ordered by start
	for i := range spans {
		spans[i].ID = i + 1
		r := ref{spans[i].Name, spans[i].Key}
		by[r] = append(by[r], i)
	}
	children := make([][]int, len(spans))
	for i := range spans {
		s := &spans[i]
		for _, pname := range spanParent[s.Name] {
			if p := enclosing(spans, by[ref{pname, s.Key}], s); p >= 0 {
				s.Parent = spans[p].ID
				children[p] = append(children[p], i)
				break
			}
		}
	}
	// Parents start no later than their children, so one pass in start
	// order hands op indices down from the roots.
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			spans[i].Op = spans[p-1].Op
		}
	}
	for i := range spans {
		kids := make([][2]int64, len(children[i]))
		for j, c := range children[i] {
			kids[j] = [2]int64{spans[c].Start, spans[c].End}
		}
		spans[i].self = selfTime(spans[i].Start, spans[i].End, kids)
	}
	return spans
}

// enclosing returns the index of the latest-starting candidate span
// that contains s, or -1.
func enclosing(spans []span, cands []int, s *span) int {
	// cands are ordered by start; find the last one starting at or
	// before s.
	n := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].Start > s.Start })
	for i := n - 1; i >= 0; i-- {
		if c := &spans[cands[i]]; c.End >= s.End {
			return cands[i]
		}
	}
	return -1
}

// selfTime is the length of [start, end) minus the part of it that the
// child intervals cover (children may overlap each other — hedged
// attempts do — and are clipped to the parent).
func selfTime(start, end int64, kids [][2]int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, at := int64(0), start
	for _, k := range kids {
		lo, hi := max(k[0], at), min(k[1], end)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return end - start - covered
}

// writeSpans writes linked spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums what a linked trace says about one span name.
type layerTimes struct {
	span []float64 // µs, one per span
	self []float64 // µs, one per span
}

func byLayer(spans []span) map[string]*layerTimes {
	out := map[string]*layerTimes{}
	for i := range spans {
		s := &spans[i]
		if s.Op < 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerTimes{}
			out[s.Name] = l
		}
		l.span = append(l.span, float64(s.End-s.Start)/1e3)
		l.self = append(l.self, float64(s.self)/1e3)
	}
	for _, name := range []string{spanOp, spanOracle, spanGet, spanPut, spanAlive, spanCluster, spanReplica} {
		if out[name] == nil {
			out[name] = &layerTimes{}
		}
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
