package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
)

// midSrc is four blocks, a phi and every kind of operand list: larger
// than what most requests parse, so a pair that parsed it holds slabs a
// small function fits in, and one that parsed a small function holds
// slabs it does not.
const midSrc = `define i32 @mid(i32 noundef %a, i32 noundef %b, i32 noundef %c) {
entry:
  %t0 = add nsw i32 %a, 0
  %t1 = mul i32 %t0, 8
  %t2 = shl i32 %b, 2
  %t3 = shl i32 %t2, 3
  %t4 = xor i32 %t1, %t1
  %t5 = or i32 %t3, %t4
  %t6 = sub i32 %t5, 0
  %t7 = and i32 %t6, -1
  %cmp = icmp sgt i32 %t7, %c
  br i1 %cmp, label %then, label %else

then:
  %u0 = add i32 %t7, 5
  %u1 = add i32 %u0, 7
  %u2 = udiv i32 %u1, 4
  %u3 = mul i32 %u2, 1
  br label %join

else:
  %v0 = sub i32 %c, %c
  %v1 = add i32 %v0, %t7
  %v2 = lshr i32 %v1, 1
  %v3 = lshr i32 %v2, 2
  %v4 = select i1 true, i32 %v3, i32 %a
  br label %join

join:
  %p = phi i32 [ %u3, %then ], [ %v4, %else ]
  %w0 = xor i32 %p, 0
  %w1 = trunc i32 %w0 to i8
  %w2 = zext i8 %w1 to i32
  ret i32 %w2
}
`

// reuseRequests is a run of /v1/verify requests in which each parse
// lands in the memory the last request's parses left: large and small
// functions in turn, proved and refuted; a target that does not parse
// (its error in the third block, after the parser has taken its
// memory); a source that does not parse and one that does not verify;
// a request whose deadline has passed by the time the oracle is asked;
// and the first four again, which the hot tier answers.
func reuseRequests() []string {
	midOpt := strings.NewReplacer(
		"%t0 = add nsw i32 %a, 0", "%t0 = add nsw i32 %a, 1",
		"%u2 = udiv i32 %u1, 4", "%u2 = lshr i32 %u1, 2",
		"%w0 = xor i32 %p, 0", "%w0 = or i32 %p, 0",
	).Replace(midSrc)
	midSame := strings.Replace(midSrc, "%u2 = udiv i32 %u1, 4", "%u2 = lshr i32 %u1, 2", 1)
	garbled := strings.Replace(midSrc, "udiv i32", "udvi i32", 1)
	useBeforeDef := "define i32 @f(i32 noundef %0) {\nentry:\n  br label %b\n\nb:\n  %2 = add i32 %3, 0\n  %3 = add i32 %0, 1\n  ret i32 %2\n}\n"
	offByOne := strings.Replace(tgtAddZero, "ret i32 %0", "%2 = add i32 %0, 1\n  ret i32 %2", 1)
	req := func(src, tgt string, timeoutMs int) string {
		return fmt.Sprintf(`{"src":%q,"tgt":%q,"timeout_ms":%d}`, src, tgt, timeoutMs)
	}
	first := []string{
		req(midSrc, midSame, 0),
		req(srcAddZero, tgtAddZero, 0),
		req(midSrc, midOpt, 0),
		req(srcAddZero, offByOne, 0),
	}
	return append(append(first,
		req(midSrc, garbled, 0),
		req(srcAddZero, garbled, 0),
		req(garbled, tgtAddZero, 0),
		req(useBeforeDef, tgtAddZero, 0),
		req(midSrc, midSame, 1),
		req(srcAddZero, "not ir", 0),
	), first...)
}

// reuseOracle is a real stack that, asked under a deadline, first
// waits for it to pass: a request with timeout_ms reaches the stack
// with its deadline gone, on every server alike.
func reuseOracle() (oracle.Oracle, *oracle.Stack) {
	stack := oracle.NewStack(oracle.Config{})
	return oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done()
		}
		return stack.Verify(ctx, src, tgt, opts)
	}), stack
}

// TestVerifyParsesIntoReleasedMemory: /v1/verify parses into a spare
// pair of Copiers, the memory an earlier request's parses left. Over
// one keep-alive connection to a one-worker server, every request's
// status and body are byte for byte what a fresh server answers to that
// request alone, and the repeated pairs are hot-tier hits. Then four
// clients send the run at once to a two-worker server: more requests
// are in flight than pairs are kept, so some parse into fresh pairs.
func TestVerifyParsesIntoReleasedMemory(t *testing.T) {
	reqs := reuseRequests()
	want := make([]string, len(reqs))
	for i, body := range reqs {
		o, _ := reuseOracle()
		s := New(Config{Workers: 1, Oracle: o})
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body)))
		want[i] = fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	for _, code := range []string{"200", "400"} {
		if !strings.Contains(strings.Join(want, "\n"), "\n"+code+" ") {
			t.Fatalf("no request answered %s; the run is close to vacuous:\n%s", code, strings.Join(want, "\n"))
		}
	}
	for _, verdict := range []string{"equivalent", "semantic_error", "syntax_error", `"reason":"canceled"`} {
		if !strings.Contains(strings.Join(want, "\n"), verdict) {
			t.Fatalf("no request answered %s; the run is close to vacuous:\n%s", verdict, strings.Join(want, "\n"))
		}
	}

	// run sends reqs in order over one connection and compares.
	run := func(t *testing.T, base string) {
		var dials atomic.Int64
		dialer := &net.Dialer{}
		client := &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}}
		defer client.CloseIdleConnections()
		for i, body := range reqs {
			resp, err := client.Post(base+"/v1/verify", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			if g := fmt.Sprintf("%d %s", resp.StatusCode, got); g != want[i] {
				t.Errorf("request %d answered\n%s\na fresh server answers\n%s", i, g, want[i])
			}
		}
		if n := dials.Load(); n != 1 {
			t.Errorf("%d connections for the run, want one kept alive", n)
		}
	}

	t.Run("one connection, one worker", func(t *testing.T) {
		o, stack := reuseOracle()
		s, base, cancel, errc := start(t, Config{Workers: 1, Oracle: o})
		run(t, base)
		drain(t, cancel, errc)
		if st := stack.Engine.Stats(); st.Hits != 4 {
			t.Errorf("%d hot-tier hits, want one per repeated pair, 4", st.Hits)
		}
		if n := len(s.spare); n != 1 {
			t.Errorf("%d spare pairs after the run, want 1", n)
		}
	})
	t.Run("four clients, two workers", func(t *testing.T) {
		o, _ := reuseOracle()
		s, base, cancel, errc := start(t, Config{Workers: 2, Oracle: o})
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(t, base)
			}()
		}
		wg.Wait()
		drain(t, cancel, errc)
		if n := len(s.spare); n > cap(s.spare) || cap(s.spare) != 2 {
			t.Errorf("%d spare pairs kept in a list of %d, want at most Workers, 2", n, cap(s.spare))
		}
	})
}
