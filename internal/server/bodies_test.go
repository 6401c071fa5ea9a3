package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"veriopt/internal/oracle"
)

var updateBodies = flag.Bool("update-bodies", false, "rewrite testdata/bodies.golden")

// TestResponseBodiesGolden pins the exact response bodies of
// /v1/verify, /v1/optimize, /v1/evaluate, /healthz and their 400s over
// fixed requests. The requests are raw JSON, not the wire types, so
// that a rename of a Go type or field cannot move the bytes unnoticed:
// the tags are the format. The /v1/verify 400s are bodies that
// encoding/json reads in its own way (a key in another case, a
// duplicate key, a \u escape, bytes past ASCII or past the object) or
// refuses (null options, a fraction, an int past int64, an array,
// nothing): each names, in its source's parse error, the text it was
// read as, or carries the decoder's message.
func TestResponseBodiesGolden(t *testing.T) {
	const twoFuncs = "define i32 @f(i32 noundef %0) {\n  %2 = add i32 %0, 0\n  ret i32 %2\n}\n\n" +
		"define i32 @g(i32 noundef %0, i32 noundef %1) {\n  %3 = mul i32 %0, 2\n  %4 = sub i32 %3, %0\n  %5 = xor i32 %4, %1\n  ret i32 %5\n}\n"
	const badLine3 = "define i32 @f(i32 noundef %0) {\n  %2 = add i32 %0, 0\n  %3 = frob i32 %2\n  ret i32 %3\n}\n"
	const twoParams = "define i32 @f(i32 noundef %0, i32 noundef %1) {\n  %3 = add i32 %0, %1\n  ret i32 %3\n}\n"
	quote := func(s string) string { return fmt.Sprintf("%q", s) }
	// frob is a source whose second line names instruction op, which
	// does not exist: its 400 quotes op as the body was read.
	frob := func(op string) string {
		return `"define i32 @f(i32 noundef %0) {\n  %2 = ` + op + ` i32 %0\n  ret i32 %2\n}\n"`
	}
	pair := `"src":` + quote(srcAddZero) + `,"tgt":` + quote(tgtAddZero)
	calls := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/verify", `{` + pair + `}`},
		{http.MethodPost, "/v1/verify", `{"src":` + quote(srcAddZero) + `, "tgt": ` + quote(tgtAddZero) +
			`, "options": {"max_paths": 8, "max_steps": 4000, "solver_budget": 100000}, "timeout_ms": 60000}`},
		{http.MethodPost, "/v1/verify", `{"src":` + quote(twoParams) + `,"tgt":` + quote(strings.Replace(twoParams, "add", "sub", 1)) + `}`},
		{http.MethodPost, "/v1/verify", `{"src":` + quote(srcAddZero) + `,"tgt":` + frob(`x<&>\"\\\/\b\f\r\ty`) + `}`},
		{http.MethodPost, "/v1/verify", `{"src":` + frob("frob") + `,"tgt":"x"} trailing`},
		{http.MethodPost, "/v1/verify", `{"SRC":` + frob("upper") + `,"tgt":"x"}`},
		{http.MethodPost, "/v1/verify", `{"src":` + quote(srcAddZero) + `,"src":` + frob("second") + `,"tgt":"x"}`},
		{http.MethodPost, "/v1/verify", `{"src":` + frob(`\u003cfrob\u003e`) + `,"tgt":"x"}`},
		{http.MethodPost, "/v1/verify", `{"src":` + frob("fröb") + `,"tgt":"x"}`},
		{http.MethodPost, "/v1/verify", `{"src":` + frob("fr\xffb") + `,"tgt":"x"}`},
		{http.MethodPost, "/v1/verify", `{"src":` + frob("null") + `,"tgt":"x","options":null}`},
		{http.MethodPost, "/v1/verify", `{` + pair + `,"timeout_ms":1e3}`},
		{http.MethodPost, "/v1/verify", `{` + pair + `,"timeout_ms":12345678901234567890}`},
		{http.MethodPost, "/v1/verify", `[]`},
		{http.MethodPost, "/v1/verify", ``},
		{http.MethodPost, "/v1/optimize", `{"ir":` + quote(twoFuncs) + `}`},
		{http.MethodPost, "/v1/evaluate", `{"seed":3,"n":6}`},
		{http.MethodPost, "/v1/evaluate", `{"seed":3,"n":6,"offset":2,"count":3,"augmented":true}`},
		{http.MethodGet, "/healthz", ``},
		{http.MethodPost, "/v1/optimize", `{"ir":` + quote(badLine3) + `}`},
		{http.MethodPost, "/v1/evaluate", `{"seed":3,"n":0}`},
	}
	_, base, cancel, errc := start(t, Config{QueueSize: 8, Workers: 1, Oracle: oracle.NewStack(oracle.Config{})})
	var got strings.Builder
	for _, c := range calls {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s %s\n%d %s\n", c.method, c.path, c.body, resp.StatusCode, blob)
	}
	drain(t, cancel, errc)

	const golden = "testdata/bodies.golden"
	if *updateBodies {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("response bodies differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
