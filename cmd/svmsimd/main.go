// Command svmsimd serves the simulator over HTTP: experiment cells and whole
// parameter sweeps are submitted as JSON (the schema of
// internal/exp/codec.go), executed on a bounded worker pool, and served from
// a content-addressed result store — a resubmitted experiment costs zero
// simulations. See internal/server for the API surface.
//
// Endpoints:
//
//	POST /v1/cells               submit one cell spec      -> job descriptor
//	POST /v1/sweeps              submit one sweep spec     -> job descriptor
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    canonical result document (?wait=1 blocks)
//	GET  /metrics                Prometheus text metrics
//	GET  /healthz                liveness: the process is up
//	GET  /readyz                 readiness: accepting work (503 during drain)
//
// A full admission queue rejects with 429 + Retry-After; SIGINT/SIGTERM
// drains: admission stops (503) while every accepted job runs to completion.
//
// With -journal-dir the daemon is crash-safe: every accepted job is fsynced
// to a write-ahead journal before the 202 reaches the client, and a restart
// replays the journal — incomplete jobs are re-enqueued (warm from the
// -cache-dir disk cache) and resubmissions of in-flight work coalesce onto
// the surviving job id. -job-deadline arms a watchdog that quarantines a job
// still running at the deadline; the job is not re-run.
// A journal directory is exclusive: a second daemon pointed at the same
// -journal-dir fails fast instead of interleaving records.
//
// Fleet modes (see internal/fleet and README "Fleet serving"):
//
//	svmsimd -coordinator            front a fleet: same API, plus
//	                                POST/DELETE /v1/workers{,/{id}/heartbeat}
//	                                and GET /v1/workers; cells dispatch to
//	                                joined workers by content-key affinity
//	svmsimd -join http://coord:7117 serve as a worker: register with the
//	                                coordinator, heartbeat at the interval
//	                                it advertises, re-join after
//	                                coordinator restarts
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"svmsim/internal/exp"
	"svmsim/internal/fleet"
	"svmsim/internal/server"
	"svmsim/internal/twin"
)

// options collects every flag so run stays a single-signature seam for the
// integration tests.
type options struct {
	addr       string
	size       exp.Size
	procs      int
	ppn        int
	parallel   int
	cacheDir   string
	journalDir string
	queue      int
	workers    int
	retry      int
	deadline   time.Duration
	reqTO      time.Duration
	drainTO    time.Duration
	pprofAddr  string
	verbose    bool

	coordinator bool
	join        string
	advertise   string
	hbInterval  time.Duration
	suspectTO   time.Duration
	maxDisp     int
	workerWait  time.Duration
	noFallback  bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7117", "listen address")
	flag.Var(&o.size, "size", "problem size: small or default")
	flag.IntVar(&o.procs, "procs", 0, "baseline processor count (0 = suite default, 16)")
	flag.IntVar(&o.ppn, "ppn", 0, "baseline processors per node (0 = suite default, 4)")
	flag.IntVar(&o.parallel, "parallel", 0, "concurrent cell simulations per sweep (0 = GOMAXPROCS)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "persist finished cells to this directory and reuse them across restarts")
	flag.StringVar(&o.journalDir, "journal-dir", "", "fsync accepted jobs to a journal in this directory and replay it on restart; off when empty")
	flag.IntVar(&o.queue, "queue-depth", 64, "admission queue bound; overflow is 429")
	flag.IntVar(&o.workers, "workers", 2, "job worker pool size")
	flag.IntVar(&o.retry, "retry-after", 2, "Retry-After seconds advertised on 429")
	flag.DurationVar(&o.deadline, "job-deadline", 0, "wall-clock bound per job; a job still running at it is quarantined (0 disables the watchdog)")
	flag.DurationVar(&o.reqTO, "request-timeout", 10*time.Minute, "per-request handler timeout (bounds ?wait=1 long polls)")
	flag.DurationVar(&o.drainTO, "drain-timeout", 10*time.Minute, "how long shutdown waits for accepted jobs before giving up")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off when empty")
	flag.BoolVar(&o.verbose, "v", false, "progress output")
	flag.BoolVar(&o.coordinator, "coordinator", false, "front a worker fleet: dispatch cells to joined svmsimd workers instead of simulating locally")
	flag.StringVar(&o.join, "join", "", "join the fleet fronted by the coordinator at this base URL and serve as its worker")
	flag.StringVar(&o.advertise, "advertise", "", "base URL this worker advertises to the coordinator (default: the resolved listen address)")
	flag.DurationVar(&o.hbInterval, "hb-interval", time.Second, "coordinator: heartbeat interval it advertises to joining workers")
	flag.DurationVar(&o.suspectTO, "suspect-timeout", 0, "coordinator: silence before a worker is declared dead (0 = 4 x hb-interval)")
	flag.IntVar(&o.maxDisp, "max-dispatches", 4, "coordinator: placement attempts per cell before giving up")
	flag.DurationVar(&o.workerWait, "worker-wait", 30*time.Second, "coordinator: how long a dispatch waits for the first alive worker")
	flag.BoolVar(&o.noFallback, "no-local-fallback", false, "coordinator: fail unplaceable cells instead of simulating them locally")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// servePprof exposes the pprof index on its own listener, kept off the API
// address so profiling endpoints never ride on the service port (and are
// opt-in, not reachable in a default deployment).
func servePprof(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "svmsimd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "svmsimd: pprof server: %v\n", err)
		}
	}()
	return nil
}

// drainable is the shutdown seam shared by a plain server and a fleet
// coordinator.
type drainable interface {
	Drain(ctx context.Context) error
}

func run(o options) error {
	if o.coordinator && o.join != "" {
		return fmt.Errorf("svmsimd: -coordinator and -join are mutually exclusive (a coordinator does not nest under another)")
	}
	if o.pprofAddr != "" {
		if err := servePprof(o.pprofAddr); err != nil {
			return err
		}
	}
	suite := exp.NewSuite(o.size)
	if o.procs > 0 {
		suite.Procs = o.procs
	}
	if o.ppn > 0 {
		suite.PPN = o.ppn
	}
	suite.Parallelism = o.parallel
	suite.CacheDir = o.cacheDir
	if o.verbose {
		suite.Verbose = os.Stderr
	}

	scfg := server.Config{
		Suite:             suite,
		Twin:              twin.New(),
		QueueDepth:        o.queue,
		Workers:           o.workers,
		RetryAfterSeconds: o.retry,
		JournalDir:        o.journalDir,
		JobDeadline:       o.deadline,
	}

	var handler http.Handler
	var drainer drainable
	if o.coordinator {
		coord, err := fleet.New(fleet.Config{
			Suite:                suite,
			Server:               scfg,
			HeartbeatInterval:    o.hbInterval,
			SuspectTimeout:       o.suspectTO,
			MaxDispatches:        o.maxDisp,
			WorkerWait:           o.workerWait,
			DisableLocalFallback: o.noFallback,
			Log:                  os.Stderr,
		})
		if err != nil {
			return err
		}
		handler, drainer = coord.Handler(), coord
	} else {
		srv, err := server.New(scfg)
		if err != nil {
			return err
		}
		handler, drainer = srv.Handler(), srv
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           http.TimeoutHandler(handler, o.reqTO, server.ErrorJSON("timeout", "request timed out")),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Worker mode: once we know the resolved listen address, start
	// maintaining a registration with the coordinator in the background.
	var membership *fleet.Membership
	if o.join != "" {
		selfURL := o.advertise
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		hostname, _ := os.Hostname()
		info := fleet.WorkerInfo{
			URL:      selfURL,
			Capacity: o.workers,
			CacheID:  fleet.CacheIdentity(hostname, o.cacheDir),
		}
		if o.cacheDir != "" {
			// Snapshot the cache on every (re-)registration so a restarted
			// coordinator learns which cells this disk already holds.
			cacheDir := o.cacheDir
			info.WarmKeys = func() []string { return exp.WarmKeys(cacheDir, 4096) }
		}
		membership = fleet.Join(&fleet.Client{}, strings.TrimRight(o.join, "/"), info, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "svmsimd: "+format+"\n", args...)
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "svmsimd: listening on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(os.Stderr, "svmsimd: draining")
	if membership != nil {
		// Deregister before draining so the coordinator re-routes new cells
		// immediately instead of dispatching into our 503s.
		membership.Leave()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTO)
	defer cancel()
	drainErr := drainer.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "svmsimd: drained cleanly")
	return nil
}
