package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"veriopt/internal/oracle"
)

// benchBody and optionsBody are /v1/verify bodies as the benchmark's
// client and the cluster coordinator write them: json.Marshal of a
// VerifyRequest without and with options.
func benchBody(tb testing.TB) []byte {
	blob, err := json.Marshal(VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

func optionsBody(tb testing.TB) []byte {
	blob, err := json.Marshal(VerifyRequest{Src: srcAddZero, Tgt: tgtAddZero,
		Options: &OptionsJSON{MaxPaths: 64, MaxSteps: 4000, SolverBudget: 200000}, TimeoutMs: 30000})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestDecodeVerifyRequest: the bodies the service's own clients write,
// and the JSON spellings the reader keeps, are read as json.Unmarshal
// reads them; every spelling it leaves to encoding/json is declined,
// with the request left zero.
func TestDecodeVerifyRequest(t *testing.T) {
	accept := []string{
		string(benchBody(t)),
		string(optionsBody(t)),
		" \t\r\n{ \"tgt\" : \"b\" , \"src\"\n:\"a\" ,\"options\": { } ,\"timeout_ms\" : -0 } \n",
		`{}`,
		`{"src":"","tgt":"\"\\\/\b\f\n\r\t"}`,
		"{\"src\":\"del \x7f\"}",
		`{"timeout_ms":-12,"options":{"solver_budget":999999999999999999,"max_steps":0,"max_paths":-3}}`,
	}
	for _, body := range accept {
		var got, want VerifyRequest
		var opts OptionsJSON
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%q: json.Unmarshal: %v", body, err)
		}
		if !decodeVerifyRequest([]byte(body), &got, &opts) {
			t.Errorf("%q declined", body)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q read as %+v, json.Unmarshal reads %+v", body, got, want)
		}
		if got.Options != nil && got.Options != &opts {
			t.Errorf("%q: Options points outside opts", body)
		}
	}
	decline := []string{
		``, ` `, `[]`, `null`, `{`, `{"src":"a"`, `{"src":"a",}`, `{,}`, `{"src" "a"}`,
		`{"src":"a"} x`, `{"src":"a"}{}`, `{"src":"a"}]`,
		`{"SRC":"a"}`, `{"Src":"a"}`, `{"src ":"a"}`, `{"s\u0072c":"a"}`, `{"unknown":1}`,
		`{"src":"a","src":"b"}`, `{"options":{},"options":{}}`, `{"options":{"max_paths":1,"max_paths":2}}`,
		`{"src":"\u003c"}`, `{"src":"\x"}`, `{"src":"\`, `{"src":"a` + "\n" + `"}`, `{"src":"a` + "\t" + `"}`,
		`{"src":"é"}`, "{\"src\":\"\xff\"}", "{\"src\":\"\x00\"}",
		`{"src":null}`, `{"options":null}`, `{"timeout_ms":null}`, `{"src":1}`, `{"timeout_ms":"1"}`, `{"options":[]}`,
		`{"timeout_ms":1.0}`, `{"timeout_ms":1e3}`, `{"timeout_ms":1E3}`, `{"timeout_ms":01}`, `{"timeout_ms":-}`,
		`{"timeout_ms":- 1}`, `{"timeout_ms":+1}`, `{"timeout_ms":1234567890123456789}`, `{"timeout_ms":true}`,
		`{"options":{"MAX_PATHS":1}}`, `{"options":{"max_paths":1.5}}`,
	}
	for _, body := range decline {
		req := VerifyRequest{Src: "left", TimeoutMs: 7}
		var opts OptionsJSON
		if decodeVerifyRequest([]byte(body), &req, &opts) {
			t.Errorf("%q accepted as %+v", body, req)
		}
		if !reflect.DeepEqual(req, VerifyRequest{}) {
			t.Errorf("%q declined, leaving %+v", body, req)
		}
	}
}

// FuzzVerifyRequestCodec: whatever body decodeVerifyRequest accepts,
// json.Unmarshal accepts too and reads as a deep-equal request, so the
// service answers it as it would without the hand-written reader.
func FuzzVerifyRequestCodec(f *testing.F) {
	f.Add(benchBody(f))
	f.Add(optionsBody(f))
	f.Add([]byte(" {\n\t\"src\" : \"a\\n\\\"b\\\"\" ,\r\n \"options\" : { \"max_steps\" : 8 } ,\"tgt\":\"\\/\" } \n"))
	f.Add([]byte(`{"timeout_ms":-0,"options":{}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got VerifyRequest
		var opts OptionsJSON
		if !decodeVerifyRequest(body, &got, &opts) {
			return
		}
		var want VerifyRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%q accepted as %+v; json.Unmarshal: %v", body, got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q read as %+v, json.Unmarshal reads %+v", body, got, want)
		}
	})
}

// TestAppendVerifyResponse: the response's bytes are
// json.NewEncoder(w).Encode's, HTML escaping, empty fields and the
// trailing newline included.
func TestAppendVerifyResponse(t *testing.T) {
	for _, resp := range []VerifyResponse{
		{},
		{Verdict: "equivalent"},
		{Verdict: "semantic_error", Diag: "a <b> & c\n\"d\"\\e\t\r\b\f\x00\x1f\x7f", Counterexample: map[string]uint64{"1": math.MaxUint64, "0": 0, "b": 1, "a<&>": 7}},
		{Verdict: "inconclusive", Reason: "canceled", SolverConflicts: -3},
		{Verdict: "x", Diag: "ünïcödé \u2028\u2029 \xff\xfe tail", Counterexample: map[string]uint64{"é\xff": 2}},
		{Verdict: "x", Counterexample: map[string]uint64{}, SolverConflicts: math.MaxInt},
		{Verdict: "x", Counterexample: map[string]uint64{"only": 1}, SolverConflicts: math.MinInt},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendVerifyResponse([]byte("kept"), &resp); string(got) != "kept"+want.String() {
			t.Errorf("%+v\nwrote   %q\nEncoder %q", resp, got, want.String())
		}
	}
}

// TestSpareDropsLargeBodyBuffer: a set whose body buffer a large
// request grew past spareBytes goes back to the spare list without
// it, so that Workers sets cannot pin Workers bodies of up to
// maxBodyBytes; a set that read a small body keeps its buffer.
func TestSpareDropsLargeBodyBuffer(t *testing.T) {
	s := New(Config{Workers: 1, Oracle: oracle.NewStack(oracle.Config{})})
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
	}
	spare := func() *parsers {
		t.Helper()
		if len(s.spare) != 1 {
			t.Fatalf("%d spare sets, want 1", len(s.spare))
		}
		ps := <-s.spare
		s.spare <- ps
		return ps
	}
	post(benchBody(t))
	if c := spare().body.Cap(); c == 0 || c > spareBytes {
		t.Fatalf("after a small body the spare set's buffer holds %d bytes, want 1 to %d", c, spareBytes)
	}
	large, err := json.Marshal(VerifyRequest{Src: strings.Repeat("x", 2*spareBytes), Tgt: tgtAddZero})
	if err != nil {
		t.Fatal(err)
	}
	post(large)
	if c := spare().body.Cap(); c > spareBytes {
		t.Fatalf("after a %d-byte body the spare set's buffer holds %d bytes, bound %d", len(large), c, spareBytes)
	}
}
