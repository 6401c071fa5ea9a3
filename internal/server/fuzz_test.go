package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/oracle"
)

// fuzzEndpoints are the queued endpoints FuzzHandlerBody posts to, with
// the type a 200 body must decode as.
var fuzzEndpoints = []struct {
	path string
	resp func() any
}{
	{"/v1/verify", func() any { return new(VerifyResponse) }},
	{"/v1/optimize", func() any { return new(OptimizeResponse) }},
	{"/v1/evaluate", func() any { return new(EvaluateResponse) }},
}

// FuzzHandlerBody: no request body, however malformed, yields a 5xx or
// a panic. Every body posted to /v1/verify, /v1/optimize or
// /v1/evaluate of a real oracle stack must answer a documented status —
// 200 with the endpoint's response type, or 400 with a non-empty
// ErrorResponse — and leave veriopt_panics_total where it was. Every
// verdict a 200 carries has a reason exactly when it is inconclusive,
// and the reason is one of alive.Reason's names. A policy
// output is exactly such a body: the paper scores a malformed one as a
// syntax error paying zero reward, never as a crash.
//
// One server runs for the whole fuzz process, its queue drained by Run;
// a 250 ms default and maximum deadline bounds every exec (a request's
// timeout_ms is clamped to it, however large).
func FuzzHandlerBody(f *testing.F) {
	const maxT = 250 * time.Millisecond
	s := New(Config{Workers: 2, DefaultTimeout: maxT, MaxTimeout: maxT, Oracle: oracle.NewStack(oracle.Config{})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx, ln) }()
	f.Cleanup(func() {
		cancel()
		if err := <-errc; err != nil {
			f.Errorf("Run returned %v after drain", err)
		}
	})
	h := s.Handler()

	add := func(endpoint byte, req any) {
		blob, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(endpoint, blob)
	}
	// Broken payloads, each aimed at a different parse/validate layer:
	// empty, garbage with NUL bytes, a truncated source, a target with a
	// missing operand, a target using an undefined value.
	for _, p := range [][2]string{
		{"", ""},
		{"not ir at all \x00\x01", "also not ir"},
		{"define i32 @f(i32 %0) {\n  %2 = add i32 %0,", "define i32 @f(i32 %0) {\n  ret i32 %0\n}\n"},
		{"define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n", "define i32 @f(i32 %0) {\n  %2 = mul i32 %0\n  ret i32 %2\n}\n"},
		{"define i32 @f(i32 noundef %0) {\n  ret i32 %0\n}\n", "define i32 @f(i32 %0) {\n  ret i32 %9\n}\n"},
	} {
		add(0, VerifyRequest{Src: p[0], Tgt: p[1]})
	}
	add(0, VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	add(1, OptimizeRequest{IR: srcAddZero})
	add(2, EvaluateRequest{Seed: 3, N: 2})
	for _, ms := range []int{-5, 3600_000, 9223372036855} {
		add(0, VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero, TimeoutMs: ms})
	}
	for i := range fuzzEndpoints {
		f.Add(byte(i), []byte{})
		f.Add(byte(i), []byte("not json"))
		f.Add(byte(i), []byte("\x00\x00{\x00}"))
	}
	f.Add(byte(0), []byte(`{"src":"x","tgt":"y"}trailing`))

	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		panics := s.metrics.panics.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		if n := s.metrics.panics.Load(); n != panics {
			t.Fatalf("%s %q: veriopt_panics_total %d -> %d", ep.path, body, panics, n)
		}
		out := rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		switch rec.Code {
		case http.StatusOK:
			resp := ep.resp()
			if err := dec.Decode(resp); err != nil {
				t.Fatalf("%s %q: 200 body %q does not decode: %v", ep.path, body, out, err)
			}
			var verdicts [][2]string
			switch r := resp.(type) {
			case *VerifyResponse:
				verdicts = append(verdicts, [2]string{r.Verdict, r.Reason})
			case *OptimizeResponse:
				for _, fr := range r.Functions {
					verdicts = append(verdicts, [2]string{fr.Verdict, fr.Reason})
				}
			}
			for _, v := range verdicts {
				if !reasonFits(v[0], v[1]) {
					t.Fatalf("%s %q: verdict %q with reason %q in %q", ep.path, body, v[0], v[1], out)
				}
			}
		case http.StatusBadRequest:
			var er ErrorResponse
			if err := dec.Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("%s %q: 400 body %q is not an ErrorResponse (%v)", ep.path, body, out, err)
			}
		default:
			t.Fatalf("%s %q: status %d, body %q; want 200 or 400", ep.path, body, rec.Code, out)
		}
	})
}

// reasonFits reports whether reason is one of alive.Reason's names and
// is empty exactly when verdict is not inconclusive.
func reasonFits(verdict, reason string) bool {
	if (verdict == alive.Inconclusive.String()) != (reason != "") {
		return false
	}
	for r := alive.NoReason; r <= alive.Canceled; r++ {
		if r.String() == reason {
			return true
		}
	}
	return false
}
