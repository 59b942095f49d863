// Command serve exposes the repro engines — test point planning, fault
// simulation, ATPG, and netlist lint — as an HTTP/JSON service.
//
// Endpoints (all engine endpoints are POST with a JSON body carrying
// either inline "bench" text or a "generate" spec, plus "options"):
//
//	POST   /v1/plan             test point planning (cuts | observe | control | hybrid)
//	POST   /v1/faultsim         bit-parallel fault simulation
//	POST   /v1/atpg             PODEM deterministic test generation
//	POST   /v1/lint             netlist static analysis
//	GET    /v1/jobs             list async jobs
//	GET    /v1/jobs/{id}        job status, progress, and result when done
//	GET    /v1/jobs/{id}/events stream job snapshots as JSON lines
//	DELETE /v1/jobs/{id}        cancel a job cooperatively
//	GET    /healthz             liveness probe
//	GET    /v1/stats            request, cache, key memo, pool, and job counters
//	GET    /debug/vars          the same counters via expvar
//
// Engine requests with "mode":"async" (or a Prefer: respond-async
// header) are accepted with 202 and a job ID instead of being answered
// in the request; with -job-dir set, jobs persist across restarts and
// interrupted ones are re-queued on startup.
//
// Results are cached content-addressed (SHA-256 of the canonicalized
// netlist and options), so repeated identical requests are served
// byte-identically without re-running the engines; a bounded memo from
// the raw body's digest to its key lets a byte-identical repeat skip
// the parse and canonicalization too. On SIGINT/SIGTERM
// the listener closes, in-flight requests drain, and the process exits
// zero.
//
// Exit codes follow the internal/cli contract: 0 after a clean drain,
// 1 on runtime failure (listener error, failed shutdown), 2 on bad
// flags or configuration.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "max concurrent engine executions (0 = GOMAXPROCS)")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 64<<20, "result cache budget in bytes")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline")
	flag.Int64Var(&cfg.maxBody, "max-body", 8<<20, "max request body bytes")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "max wait for in-flight requests on shutdown")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "opt-in pprof/expvar listener on a separate address (bind to localhost; never expose publicly)")
	flag.StringVar(&cfg.jobDir, "job-dir", "", "persistent async job store directory (empty = in-memory jobs that do not survive restarts)")
	flag.IntVar(&cfg.jobQueue, "job-queue", 64, "max queued async jobs before submissions get 429")
	flag.IntVar(&cfg.maxJobs, "max-jobs", 1024, "max retained async jobs before the oldest finished ones are garbage-collected")
	flag.DurationVar(&cfg.jobRetention, "job-retention", time.Hour, "how long finished async jobs stay queryable")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 10*time.Minute, "per-job execution deadline, independent of -request-timeout")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// config gathers one invocation's settings.
type config struct {
	addr           string
	workers        int
	cacheBytes     int64
	requestTimeout time.Duration
	maxBody        int64
	drainTimeout   time.Duration
	debugAddr      string
	jobDir         string
	jobQueue       int
	maxJobs        int
	jobRetention   time.Duration
	jobTimeout     time.Duration
}

// validate rejects configurations the server cannot run with; the
// returned errors carry the usage exit code (2) through cli.ExitCode.
func (c config) validate() error {
	switch {
	case c.addr == "":
		return cli.Usage(errors.New("-addr must not be empty"))
	case c.workers < 0:
		return cli.Usage(fmt.Errorf("-workers must be >= 0 (got %d)", c.workers))
	case c.cacheBytes < 0:
		return cli.Usage(fmt.Errorf("-cache-bytes must be >= 0 (got %d)", c.cacheBytes))
	case c.requestTimeout <= 0:
		return cli.Usage(fmt.Errorf("-request-timeout must be positive (got %v)", c.requestTimeout))
	case c.maxBody <= 0:
		return cli.Usage(fmt.Errorf("-max-body must be positive (got %v)", c.maxBody))
	case c.drainTimeout <= 0:
		return cli.Usage(fmt.Errorf("-drain-timeout must be positive (got %v)", c.drainTimeout))
	case c.debugAddr != "" && c.debugAddr == c.addr:
		return cli.Usage(fmt.Errorf("-debug-addr must differ from -addr (both %q): the profiling listener must never share the public socket", c.addr))
	case c.jobQueue <= 0:
		return cli.Usage(fmt.Errorf("-job-queue must be positive (got %d)", c.jobQueue))
	case c.maxJobs <= 0:
		return cli.Usage(fmt.Errorf("-max-jobs must be positive (got %d)", c.maxJobs))
	case c.jobRetention <= 0:
		return cli.Usage(fmt.Errorf("-job-retention must be positive (got %v)", c.jobRetention))
	case c.jobTimeout <= 0:
		return cli.Usage(fmt.Errorf("-job-timeout must be positive (got %v)", c.jobTimeout))
	}
	return nil
}

// debugHandler assembles the profiling mux served on -debug-addr: the
// full net/http/pprof surface plus the expvar counters. It is mounted
// on its own listener, never the public one, so operators can firewall
// it by address — pprof exposes heap contents and must not be public.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Read deadlines of the public listener. A client has headerTimeout to
// send its request line and headers, and readTimeout to send the whole
// request: 8 MiB, the default -max-body, takes 67 s at 1 Mbit/s. A
// client that stalls is dropped at its deadline, so a stalled upload
// holds its connection, its goroutine and its body buffer (at most
// 256 KiB beyond the bytes it sent) for readTimeout at most. net/http
// lifts the read deadline once a body has been read, so a handler may
// run past it. readTimeout also bounds a keep-alive connection's idle
// wait. There is no write deadline: a job's event stream stays open as
// long as the job runs.
const (
	headerTimeout = 10 * time.Second
	readTimeout   = 2 * time.Minute
)

// publicServer returns the server of the public listener: h behind the
// given header and whole-request read deadlines.
func publicServer(addr string, h http.Handler, header, read time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: header, ReadTimeout: read}
}

func run(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Workers:        cfg.workers,
		CacheBytes:     cfg.cacheBytes,
		RequestTimeout: cfg.requestTimeout,
		MaxBody:        cfg.maxBody,
		JobDir:         cfg.jobDir,
		JobQueue:       cfg.jobQueue,
		MaxJobs:        cfg.maxJobs,
		JobRetention:   cfg.jobRetention,
		JobTimeout:     cfg.jobTimeout,
	})
	if err != nil {
		return err
	}
	s.PublishExpvar()

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/debug/vars", expvar.Handler())

	srv := publicServer(cfg.addr, mux, headerTimeout, readTimeout)
	errc := make(chan error, 2)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", cfg.addr)

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: debugHandler()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serve: pprof/expvar debug listener on %s (do not expose publicly)\n", cfg.debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// A listener failed before any shutdown was requested; release
		// the job scheduler too instead of leaking it on the error path.
		s.Close()
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight requests finish.
	fmt.Fprintln(os.Stderr, "serve: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if debugSrv != nil {
		// The debug listener has no long-lived requests worth draining;
		// close it outright so only the public drain gates the exit.
		_ = debugSrv.Close()
	}
	// End the long-lived job-event streams before Shutdown: Shutdown
	// waits for active requests, and a subscriber blocked on a job that
	// outlives the drain window would otherwise hold the exit until the
	// deadline and turn a clean SIGTERM into a failed shutdown.
	s.DrainStreams()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Stop the job scheduler after the listener drains. Jobs cut off
	// mid-run keep a running-state journal and are re-queued by the next
	// process on the same -job-dir.
	s.Close()
	return nil
}
