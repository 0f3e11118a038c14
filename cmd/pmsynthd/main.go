// Command pmsynthd serves the power-management synthesis engine over
// HTTP/JSON: asynchronous design-space sweep jobs with streamed progress,
// and one-shot synthesis answered synchronously as a one-point sweep.
// Each request carries one source; identical requests join one job.
// Admission is backpressured: jobs queue on a bounded pending queue
// drained by a fixed worker pool, and submissions beyond the queue
// capacity are shed with 429 + Retry-After.
// See internal/server for the API surface and DESIGN.md ("Serving
// layer") for the architecture.
//
// Usage:
//
//	pmsynthd [-addr 127.0.0.1:8357] [-job-workers 2]
//	         [-max-pending-jobs 64] [-max-sweep-workers 0] [-job-ttl 1h]
//	         [-retry-after 1s] [-store-dir DIR] [-store-max-bytes N]
//	         [-self-url URL] [-peers URL,URL,...] [-log-level info]
//	         [-log-format json] [-debug-addr ADDR] [-drain 10s]
//
// With -store-dir set, finished sweeps and synthesize results persist
// across restarts in a content-addressed disk store: a restarted
// daemon answers repeated requests from disk without recompiling.
//
// With -self-url and -peers set, the daemon joins a static cluster:
// each sweep or synthesize fingerprint ranks the nodes by consistent
// (rendezvous) hashing, a submission runs on the first reachable node of
// that ranking — so every node that sees the same dead owner picks the
// same executor — and job ids become cluster-routable ("<node>~<id>",
// resolvable at any node). See DESIGN.md ("Cluster").
//
// Logging is structured (log/slog) on stderr, at -log-level
// (debug|info|warn|error) in -log-format (json|text). At info the daemon
// logs its own start and shutdown, and warns when a cluster proxy call
// fails; debug adds one access-log line per request, carrying the
// telemetry trace id. A job's lifecycle is its event stream
// (/v1/jobs/{id}/events), not a log line.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ — kept off the API address so profiling endpoints are
// never exposed where the API is.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (bounded by -drain), and running
// jobs are canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// splitPeers parses the comma-separated -peers value, dropping empty
// segments so trailing commas are harmless.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8357", "listen address")
	jobWorkers := flag.Int("job-workers", 2, "fixed worker pool size for sweep and synthesize jobs")
	maxPendingJobs := flag.Int("max-pending-jobs", 64, "admission queue depth; submissions beyond it get 429")
	maxSweepWorkers := flag.Int("max-sweep-workers", 0, "flow workers per job: the cap on client requests and the default (0 = GOMAXPROCS)")
	jobTTL := flag.Duration("job-ttl", time.Hour, "how long finished jobs stay queryable")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) submissions")
	storeDir := flag.String("store-dir", "", "directory of the persistent result store (empty disables persistence)")
	storeMaxBytes := flag.Int64("store-max-bytes", 1<<30, "disk budget of the persistent store's segment files; the oldest segments are deleted beyond it")
	selfURL := flag.String("self-url", "", "this node's advertised base URL (e.g. http://10.0.0.3:8357); enables cluster mode")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster node (self may be listed); requires -self-url")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "json", "log format: json or text")
	debugAddr := flag.String("debug-addr", "", "listen address for the pprof debug server (empty disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pmsynthd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmsynthd: %v\n", err)
		os.Exit(2)
	}
	logger, err := telemetry.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmsynthd: %v\n", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		JobWorkers:      *jobWorkers,
		MaxPendingJobs:  *maxPendingJobs,
		MaxSweepWorkers: *maxSweepWorkers,
		JobTTL:          *jobTTL,
		RetryAfter:      *retryAfter,
		StoreDir:        *storeDir,
		StoreMaxBytes:   *storeMaxBytes,
		SelfURL:         *selfURL,
		Peers:           splitPeers(*peers),
		Logger:          logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof listener is separate from the API listener by design: it
	// is opt-in, typically bound to localhost, and never reachable at the
	// address the API is served on. Registered on a private mux — the
	// net/http/pprof import also touches http.DefaultServeMux, which is
	// not used here.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof debug server listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof debug server failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("pmsynthd listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	srv.Close() // cancels running jobs and stops the manager
	logger.Info("bye")
}
