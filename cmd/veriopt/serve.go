package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"veriopt/internal/cluster"
	"veriopt/internal/obs"
	"veriopt/internal/oracle"
	"veriopt/internal/server"
)

// splitReplicas parses the -replicas flag: comma-separated base URLs,
// empties dropped, trailing slashes trimmed so URL+path joins stay
// clean.
func splitReplicas(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// cmdServe runs the verification-as-a-service front-end: a long-lived
// HTTP/JSON server over the oracle stack (see internal/server).
// SIGTERM or SIGINT drains gracefully — stop accepting, finish
// in-flight requests within -grace, then flush the oracle/cache stats
// to stderr.
//
// With -replicas the process becomes a cluster coordinator (see
// internal/cluster): /v1/verify queries that miss the local verdict
// cache are rendezvous-hashed across the named worker replicas, with
// failure re-routing and local verification as the last-resort
// fallback. /healthz reports role=coordinator and /metrics grows the
// coordinator's per-replica section.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8723", "listen address")
	queueSize := fs.Int("queue", server.DefaultQueueSize,
		"requests that may wait for a slot (past that, requests are shed with 429 + Retry-After)")
	workers := fs.Int("workers", runtime.NumCPU(), "requests executing at once (the rest wait for a slot)")
	modelPath := fs.String("model", "",
		"trained policy JSON (from train -save) behind /v1/optimize and /v1/evaluate; empty = instcombine / untrained base")
	timeout := fs.Duration("timeout", 30*time.Second,
		"default per-request deadline, queue wait included (requests may set their own timeout_ms)")
	maxTimeout := fs.Duration("max-timeout", server.DefaultMaxTimeout,
		"ceiling on client-supplied timeout_ms; larger requests are clamped, negative ones rejected with 400")
	grace := fs.Duration("grace", server.DefaultGracePeriod, "drain deadline after SIGTERM/SIGINT")
	trace := fs.String("trace", "", "write JSON-lines request-span events to this file ('-' = stderr)")
	storeDir := fs.String("store-dir", "",
		"durable verdict store directory: verdicts append incrementally as they are proved, survive crashes, and warm-start the next boot")
	replicas := fs.String("replicas", "",
		"coordinator mode: comma-separated worker base URLs (http://host:port); queries are rendezvous-hashed across them, with local verification as the fallback when the fleet fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, closeTrace, err := openTrace(*trace)
	if err != nil {
		return err
	}
	defer closeTrace()

	// The shared main() handler covers SIGINT; serving adds SIGTERM,
	// the orchestrator-issued shutdown signal.
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM)
	defer stop()

	model, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	// A worker verifies locally; a coordinator is the same stack with
	// the replica set as its Remote.
	role := "worker"
	var coord *cluster.Coordinator
	var remote oracle.Remote
	if *replicas != "" {
		urls := splitReplicas(*replicas)
		if len(urls) == 0 {
			return fmt.Errorf("-replicas is set but names no URLs")
		}
		coord, err = cluster.New(cluster.Config{Replicas: urls, Obs: rec})
		if err != nil {
			return err
		}
		role, remote = "coordinator", coord
	}
	st, err := openStoreDir(*storeDir, rec)
	if err != nil {
		return err
	}
	o := storeStack(st, remote)
	defer reportVerifierStats(o)
	// Closing the store after the drain syncs the unsynced tail — the
	// last durability step of a graceful shutdown.
	defer closeStore(st, rec)

	scfg := server.Config{
		Workers:        *workers,
		QueueSize:      *queueSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		GracePeriod:    *grace,
		Oracle:         o,
		Model:          model,
		Obs:            rec,
		Role:           role,
	}
	if coord != nil {
		scfg.ExtraMetrics = coord.MetricsText
		coord.Start(ctx)
		defer coord.Wait()
		fmt.Fprintf(os.Stderr, "veriopt serve: coordinating %d replicas\n", len(splitReplicas(*replicas)))
	}
	srv := server.New(scfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "veriopt serve: listening on http://%s (queue %d, workers %d)\n",
		ln.Addr(), *queueSize, *workers)
	rec.Emit(obs.Event{Kind: "run_start", Note: "serve " + ln.Addr().String()})
	err = srv.Run(ctx, ln)
	rec.Emit(obs.Event{Kind: "run_end"})
	fmt.Fprintln(os.Stderr, "veriopt serve: drained")
	return err
}
