// Command ahbserved is the scenario-serving daemon: a long-lived HTTP
// service that runs power-analysis scenario batches on the parallel
// engine. It adds what a run-to-completion CLI never needs — admission
// control with backpressure, per-request deadlines, a content-addressed
// result cache (deterministic runs make cached and fresh responses
// byte-identical) and a graceful SIGTERM drain that finishes or cancels
// in-flight batches without dropping completed results. With -state-dir
// the daemon is additionally crash-safe: async jobs are journaled,
// results gain a disk cache tier, long scenarios checkpoint as they run,
// and a restart on the same directory recovers every interrupted job —
// resumed, byte-identical, under its original job id.
//
// API:
//
//	POST /v1/run        {"scenarios":[{"cycles":4000}, ...]}      run a batch
//	POST /v1/run        {"async":true, ...}                       -> 202 + job id
//	GET  /v1/jobs/{id}  poll an async job
//	GET  /healthz       readiness (503 while draining)
//	GET  /metrics       serving counters (expvar JSON)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8097", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine workers per batch (default: effective CPU quota)")
	concurrent := flag.Int("concurrent", 2, "batches executing at once")
	queue := flag.Int("queue", 256, "admitted requests waiting for a batch slot before 503")
	cacheEntries := flag.Int("cache", 4096, "result-cache entries (negative disables)")
	maxScenarios := flag.Int("max-scenarios", 1024, "scenarios per request")
	maxCycles := flag.Uint64("max-cycles", 50_000_000, "cycles per scenario")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "maximum per-request deadline")
	drainGrace := flag.Duration("drain-grace", 15*time.Second, "time in-flight batches may finish after SIGTERM before cancellation")
	degradeAt := flag.Float64("degrade-at", 0.75, "queue-pressure fraction that enters degraded mode (negative disables)")
	backend := flag.String("backend", "", "default execution backend for requests that don't pick one: event, compiled, auto or lanes (lanes: retired, runs compiled)")
	accuracy := flag.String("accuracy", "", "default accuracy class for requests that don't pick one: cycle (exact) or transaction (calibrated estimate; part of the cache key)")
	degradeEstimate := flag.Bool("degrade-estimate", false, "under queue pressure, downgrade eligible cycle-accuracy scenarios to the transaction-level estimate (approximate answers; opt-in)")
	stateDir := flag.String("state-dir", "", "directory for the durable job journal, disk result cache and scenario checkpoints; a daemon restarted on the same directory recovers interrupted jobs (empty: in-memory only)")
	checkpointEvery := flag.Uint64("checkpoint-every", 250_000, "minimum cycles between persisted scenario checkpoints when -state-dir is set (0 disables checkpointing)")
	flag.Parse()

	logger := log.New(os.Stderr, "ahbserved: ", log.LstdFlags)
	if !exec.ValidName(*backend) {
		logger.Fatalf("unknown -backend %q (want event, compiled, lanes or auto)", *backend)
	}
	if !engine.ValidAccuracy(*accuracy) {
		logger.Fatalf("unknown -accuracy %q (want cycle or transaction)", *accuracy)
	}
	srv, err := serve.Open(serve.Config{
		Workers:         *workers,
		MaxConcurrent:   *concurrent,
		MaxQueue:        *queue,
		CacheEntries:    *cacheEntries,
		MaxScenarios:    *maxScenarios,
		MaxCycles:       *maxCycles,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		DegradeAt:       *degradeAt,
		DefaultBackend:  *backend,
		DefaultAccuracy: *accuracy,
		DegradeEstimate: *degradeEstimate,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
	})
	if err != nil {
		logger.Fatalf("opening state: %v", err)
	}
	if *stateDir != "" {
		logger.Printf("durable state in %s (checkpoint every %d cycles)", *stateDir, *checkpointEvery)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s (workers=%d concurrent=%d queue=%d)", *addr, *workers, *concurrent, *queue)

	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting, let in-flight batches finish for
	// the grace period, cancel stragglers, then close the listener and
	// flush the final metrics snapshot.
	logger.Printf("signal received; draining (grace %s)", *drainGrace)
	srv.Drain(*drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed
	logger.Printf("drained; final metrics: %s", srv.MetricsJSON())
	fmt.Fprintln(os.Stderr, "ahbserved: bye")
}
