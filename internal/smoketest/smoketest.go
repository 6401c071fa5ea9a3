// Package smoketest is the process harness the env-gated smokes share
// (internal/cluster and internal/loadgen import it from _test.go files
// only): build and launch the real `veriopt serve`, and launch slow
// worker processes by re-executing the test binary itself. The slow
// worker is where the smokes' injected verification latency lives —
// the shipped oracle stack has no sleep in it.
package smoketest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"veriopt/internal/alive"
	"veriopt/internal/ir"
	"veriopt/internal/oracle"
	"veriopt/internal/server"
)

// workerArg as os.Args[1] marks a test binary re-executed as a slow
// worker; see Main.
const workerArg = "smoketest-slow-worker"

// Main is the TestMain body of a package that starts slow workers: a
// re-executed child serves until SIGTERM and exits, anything else runs
// the package's tests.
func Main(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == workerArg {
		if err := serveWorker(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "slow worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Worker sizes one slow worker: a serving process whose every live
// verification first sleeps Delay — the stand-in for solver work that
// makes a fan-out measurement latency-bound on a machine where real
// verification would be CPU-bound.
type Worker struct {
	// Addr is the listen address; empty picks a free loopback port.
	Addr  string
	Delay time.Duration
}

// slowBase is the oracle.Func a slow worker installs at Config.Base:
// sleep, honoring ctx so a caller's cancellation aborts it promptly,
// then run the real verifier.
func (w Worker) slowBase() oracle.Oracle {
	base := oracle.Base()
	return oracle.Func(func(ctx context.Context, src, tgt *ir.Function, opts alive.Options) alive.Result {
		t := time.NewTimer(w.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return alive.CanceledResult(ctx.Err())
		}
		return base.Verify(ctx, src, tgt, opts)
	})
}

// serveWorker is the child side of StartWorker: spec is the Worker as
// JSON.
func serveWorker(spec string) error {
	var w Worker
	if err := json.Unmarshal([]byte(spec), &w); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	srv := server.New(server.Config{
		Workers:        8,
		QueueSize:      256,
		DefaultTimeout: 30 * time.Second,
		Oracle:         oracle.NewStack(oracle.Config{Base: w.slowBase()}),
	})
	ln, err := net.Listen("tcp", w.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "slow worker: listening on http://%s\n", ln.Addr())
	return srv.Run(ctx, ln)
}

// StartWorker launches a slow worker process. A fixed Addr is retried
// for a while: a port freed by a kill can linger briefly.
func StartWorker(t *testing.T, w Worker) *Proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	fixed := w.Addr != ""
	if !fixed {
		w.Addr = "127.0.0.1:0"
	}
	spec, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, err := launch(t, exe, []string{workerArg, string(spec)})
		if err == nil {
			return p
		}
		if !fixed || time.Now().After(deadline) {
			t.Fatalf("start slow worker: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// BuildVeriopt builds the CLI into the test's temp directory.
func BuildVeriopt(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "veriopt")
	cmd := exec.Command("go", "build", "-o", bin, "veriopt/cmd/veriopt")
	if blob, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, blob)
	}
	return bin
}

// StartServe launches `bin serve` on a free loopback port with the
// extra flags.
func StartServe(t *testing.T, bin string, extra ...string) *Proc {
	t.Helper()
	p, err := launch(t, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Proc is one spawned serving process.
type Proc struct {
	cmd  *exec.Cmd
	Addr string // host:port actually bound
	URL  string // http://host:port
}

// launch starts exe, reads the bound address off its "listening on"
// banner, and waits for /healthz. The process is killed at test end if
// it is still running.
func launch(t *testing.T, exe string, args []string) (*Proc, error) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{cmd: cmd}
	t.Cleanup(p.Kill)

	// Parse the bound address off the startup banner, then keep
	// draining stderr so the process never blocks on a full pipe.
	lines := bufio.NewScanner(stderr)
	var banner bytes.Buffer
	for lines.Scan() {
		line := lines.Text()
		banner.WriteString(line + "\n")
		if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
			p.Addr = strings.Fields(rest)[0]
			p.URL = "http://" + p.Addr
			break
		}
	}
	if p.URL == "" {
		p.Kill()
		return nil, fmt.Errorf("no listening banner from %s %v:\n%s", exe, args, banner.String())
	}
	go io.Copy(io.Discard, stderr)

	// Readiness: the banner precedes Run; wait for /healthz.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("%s never became healthy", p.URL)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Stop drains the process gracefully (SIGTERM) and reaps it.
func (p *Proc) Stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// Kill SIGKILLs the process — the mid-run replica failure — and reaps
// it. Killing a process already reaped is a no-op.
func (p *Proc) Kill() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
