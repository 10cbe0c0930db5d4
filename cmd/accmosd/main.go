// Command accmosd is the AccMoS simulation daemon: a long-lived HTTP
// service that accepts model submissions, schedules them on a bounded
// priority queue, compiles them through a shared bounded build cache,
// and streams live progress — simulation as a service instead of one
// process per run.
//
// Usage:
//
//	accmosd -addr :7070 -workers 4 -queue 64 -cache-entries 128
//
//	curl -s localhost:7070/healthz
//	curl -s -X POST localhost:7070/v1/jobs -d '{"model":"<slx xml>","steps":100000,"coverage":true}'
//	curl -s localhost:7070/v1/jobs/j-000001
//	curl -sN localhost:7070/v1/jobs/j-000001/events
//	curl -s localhost:7070/metrics      # Prometheus text exposition 0.0.4
//
// SIGTERM (or SIGINT) starts a graceful drain: the listener stops, new
// submissions get 503, admitted jobs finish (bounded by -drain-timeout),
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof-addr mux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	accmos "accmos"
	"accmos/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:7070", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executors")
		queueDepth   = flag.Int("queue", 64, "max queued jobs before submissions get 429")
		cacheEntries = flag.Int("cache-entries", 128, "max programs resident in the build cache (-1 = unbounded)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job execution cap (0 = none)")
		poolWorkers  = flag.Int("pool-workers", 2, "warm serve-mode processes kept per compiled artifact, shared across jobs (minimum 1)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		maxBody      = flag.Int64("max-body", 8<<20, "max submission body bytes")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful-drain bound on SIGTERM; afterwards remaining jobs are canceled")
		optLevel     = flag.Int("opt", 1, "default optimization level for jobs that do not set optLevel (0 = off, 1 = constant folding + CSE + dead-actor elimination, 2 = O1 + expression fusion, invariant hoisting, storage narrowing)")
		quiet        = flag.Bool("quiet", false, "suppress per-job logging")
		logJSON      = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")
		pprofAddr    = flag.String("pprof-addr", "", "optional separate listen address for net/http/pprof (e.g. localhost:6060); empty disables profiling")
	)
	flag.Parse()

	defaultOpt, err := accmos.OptLevelFromInt(*optLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "accmosd:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		JobTimeout:      *jobTimeout,
		PoolWorkers:     *poolWorkers,
		RetryAfter:      *retryAfter,
		MaxBodyBytes:    *maxBody,
		DefaultOptLevel: defaultOpt,
	}
	var logger *slog.Logger
	if !*quiet {
		// Structured logging replaces the old printf lines: every per-job
		// record carries corr=<job id>, joinable with the job's trace,
		// heartbeats and debug bundle.
		var handler slog.Handler
		if *logJSON {
			handler = slog.NewJSONHandler(os.Stderr, nil)
		} else {
			handler = slog.NewTextHandler(os.Stderr, nil)
		}
		logger = slog.New(handler).With("component", "accmosd")
		cfg.Logger = logger
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *pprofAddr != "" {
		// pprof gets its own listener so profiling never shares the
		// public service port; the import above registered its handlers
		// on http.DefaultServeMux.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "accmosd: listening on %s (%d workers, queue %d)\n", *addr, *workers, *queueDepth)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "accmosd: %v: draining (bound %v)\n", sig, *drainTimeout)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "accmosd:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain and Shutdown run together: Drain flips the scheduler to
	// refuse new work and completes admitted jobs, which also unblocks
	// the open /events streams Shutdown waits on.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()
	httpSrv.Shutdown(ctx)
	if err := <-drainErr; err != nil {
		fmt.Fprintf(os.Stderr, "accmosd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "accmosd: drained cleanly")
}
