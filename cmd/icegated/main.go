// Command icegated is the scenario-serving gateway daemon: internal/
// icegate behind a TCP listener. It accepts scenario-run and experiment-
// table jobs over HTTP/JSON, executes them on the fleet runner, streams
// per-cell results as NDJSON, and memoizes finished tables in the
// deterministic result cache.
//
// Usage:
//
//	icegated [-addr host:port] [-workers N] [-executors N] [-queue N] [-maxcells N]
//	         [-tenants file.json] [-store dir] [-store-bytes N]
//	         [-mesh host:port] [-shard-cells N] [-shard-window N]
//	         [-trace-sample N] [-pprof host:port] [-drain-timeout D]
//
// -addr accepts ":0" to bind an ephemeral port; the chosen address is
// printed on the first line of output ("icegated: listening on ..."), so
// scripts can start the daemon on a random port and scrape the address.
// cmd/icerun -remote is the matching client.
//
// -pprof starts a separate debug listener (net/http/pprof profiles at
// /debug/pprof/) kept off the API address so production traffic never
// shares a mux with the profiler. Gateway metrics stay at the API's
// /metrics endpoint.
//
// -mesh starts an icemesh coordinator on the given address (again ":0"
// works; the address is printed as "icegated: mesh coordinator on ...")
// and makes the cluster the job execution backend: cmd/icenode workers
// register there and submitted jobs fan out across them, byte-identical
// to local execution. Without -mesh, cells run in-process. -shard-cells
// and -shard-window tune the coordinator's streaming assignment (shard
// granularity and per-node in-flight credit).
//
// -tenants loads per-tenant quotas and fair-share weights from a JSON
// file (see icegate.TenantsConfig); without it every caller shares the
// anonymous tenant under unlimited quotas. Clients name their tenant via
// the X-Icegate-Tenant header or the request body's "tenant" field.
//
// -store points at a directory for the disk-backed result store: finished
// tables persist there keyed by the deterministic cache key, so cache
// hits survive daemon restarts byte-identical. -store-bytes caps the
// store's on-disk footprint (LRU eviction; 0 = unlimited).
//
// -trace-sample N force-enables span recording on every Nth submitted
// job, so a long-running daemon always has recent traces at
// /jobs/{id}/trace without clients opting in.
//
// On SIGTERM/SIGINT the daemon shuts down gracefully: the HTTP front
// end stops accepting, queued and running jobs drain within
// -drain-timeout, and the process exits 0; jobs still running at the
// deadline are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/icegate"
	"repro/internal/icemesh"
	"repro/internal/icescope"
	"repro/internal/icestore"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8844", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", runtime.NumCPU(), "fleet cells the gateway computes at once, across all jobs (local cells)")
	executors := flag.Int("executors", 2, "jobs executing concurrently")
	queue := flag.Int("queue", 16, "queued-job capacity before submissions get 429")
	maxCells := flag.Int("maxcells", 4096, "per-job cell ceiling (admission control)")
	tenantsPath := flag.String("tenants", "", "JSON file with per-tenant quotas and weights (unset = single anonymous tenant)")
	storeDir := flag.String("store", "", "directory for the disk-backed result store (unset = memory cache only)")
	storeBytes := flag.Int64("store-bytes", 0, "disk-store byte budget, LRU-evicted (0 = unlimited)")
	mesh := flag.String("mesh", "", "mesh coordinator listen address; when set, jobs execute on registered icenode workers")
	shardCells := flag.Int("shard-cells", 0, "mesh shard granularity in cells (0 = coordinator default)")
	shardWindow := flag.Int("shard-window", 0, "mesh per-node in-flight shard window (0 = sized from node capacity)")
	traceSample := flag.Int("trace-sample", 0, "force-trace every Nth submitted job (0 = only on request)")
	pprofAddr := flag.String("pprof", "", "debug listen address for net/http/pprof profiles (off unless set)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for queued+running jobs on SIGTERM")
	flag.Parse()

	if *pprofAddr != "" {
		debugLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icegated: pprof listener: %v\n", err)
			os.Exit(1)
		}
		// Gateway metrics are already on the API mux (/metrics); the debug
		// listener carries only the profiler.
		go func() { _ = http.Serve(debugLn, icescope.DebugMux(nil)) }()
		defer debugLn.Close()
		fmt.Printf("icegated: pprof on %s\n", debugLn.Addr())
	}

	cfg := icegate.Config{
		QueueDepth:  *queue,
		Executors:   *executors,
		Workers:     *workers,
		MaxCells:    *maxCells,
		TraceSample: *traceSample,
	}

	if *tenantsPath != "" {
		tcfg, err := icegate.LoadTenants(*tenantsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icegated: %v\n", err)
			os.Exit(1)
		}
		cfg.Tenants = tcfg
		fmt.Printf("icegated: tenant config loaded from %s (%d named tenants)\n", *tenantsPath, len(tcfg.Tenants))
	}

	if *storeDir != "" {
		st, err := icestore.Open(icestore.Config{Dir: *storeDir, MaxBytes: *storeBytes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "icegated: result store: %v\n", err)
			os.Exit(1)
		}
		cfg.Store = st
		stat := st.Stats()
		fmt.Printf("icegated: result store at %s (%d entries, %d bytes recovered)\n", st.Dir(), stat.Entries, stat.Bytes)
	}

	var coord *icemesh.Coordinator
	if *mesh != "" {
		meshLn, err := net.Listen("tcp", *mesh)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icegated: mesh listener: %v\n", err)
			os.Exit(1)
		}
		coord = icemesh.NewCoordinator(icemesh.Config{
			ShardCells: *shardCells,
			Window:     *shardWindow,
			Logf:       func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		go func() { _ = coord.Serve(meshLn) }()
		defer meshLn.Close()
		cfg.Backend = coord
		fmt.Printf("icegated: mesh coordinator on %s\n", meshLn.Addr())
	}

	sched := icegate.NewScheduler(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icegated: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("icegated: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: icegate.NewHandler(sched)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("icegated: %v, draining (timeout %v)\n", s, *drainTimeout)
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "icegated: %v\n", err)
			sched.Close()
			os.Exit(1)
		}
	}

	// Graceful order: stop the HTTP front end (no new submissions race
	// the teardown), drain queued and running jobs to completion within
	// the deadline, then release everything. Exit 0 either way — a blown
	// deadline cancelled the stragglers, it didn't corrupt anything.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := sched.Drain(ctx); err != nil {
		fmt.Printf("icegated: drain deadline, cancelled remaining jobs: %v\n", err)
	} else {
		fmt.Println("icegated: drained clean")
	}
	sched.Close()
	if coord != nil {
		coord.Close()
	}
}
