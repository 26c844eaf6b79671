// Command icenode is a mesh worker daemon: it registers with an icemesh
// coordinator (an icegated started with -mesh), advertises its cell
// capacity, heartbeats, and executes assigned cell ranges on a local
// fleet pool, sending each range's results back when the range ends.
//
// Usage:
//
//	icenode -coord host:port [-name N] [-workers N] [-pprof host:port]
//	        [-drain-timeout D]
//
// The daemon re-dials with exponential backoff + jitter if the
// coordinator is down or restarts, so nodes and coordinator can be
// started in any order. On SIGTERM/SIGINT it drains gracefully: it
// announces the drain (the coordinator assigns nothing more), finishes
// queued and in-flight shards within -drain-timeout, and exits 0;
// anything unfinished at the deadline is abandoned to the coordinator's
// re-assignment.
//
// -pprof starts a debug listener serving net/http/pprof profiles plus
// the node's own /metrics (icenode_* counters and histograms in
// Prometheus text format). The node records spans only for traced jobs,
// and forwards them into the job's trace on the coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/icemesh"
	"repro/internal/icescope"
)

func main() {
	coord := flag.String("coord", "", "coordinator address (host:port), required")
	name := flag.String("name", "", "advertised node name (default: coordinator-assigned)")
	workers := flag.Int("workers", runtime.NumCPU(), "local fleet pool width (advertised capacity)")
	pprofAddr := flag.String("pprof", "", "debug listen address for net/http/pprof profiles and node /metrics (off unless set)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight shards on SIGTERM")
	flag.Parse()
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "icenode: -coord is required")
		flag.Usage()
		os.Exit(2)
	}
	logf := log.New(os.Stdout, "", log.LstdFlags).Printf

	// One registry and one NodeObs for the whole process: the node re-uses
	// them across coordinator re-dials, so counters survive reconnects.
	reg := icescope.NewRegistry()
	obs := icemesh.NewNodeObs(reg)

	if *pprofAddr != "" {
		debugLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icenode: pprof listener: %v\n", err)
			os.Exit(1)
		}
		go func() { _ = http.Serve(debugLn, icescope.DebugMux(reg)) }()
		defer debugLn.Close()
		logf("icenode: pprof on %s", debugLn.Addr())
	}

	ctx, stop := context.WithCancel(context.Background())
	node := icemesh.NewNode(icemesh.NodeConfig{
		Coordinator: *coord,
		Name:        *name,
		Workers:     *workers,
		Logf:        logf,
		Obs:         obs,
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("icenode: %v, draining (timeout %v)", s, *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := node.Drain(dctx); err != nil {
			logf("icenode: %v; abandoning in-flight work to re-assignment", err)
		} else {
			logf("icenode: drained clean")
		}
		stop() // closes the connection; Run returns nil for a draining node
	}()

	// Serve until signalled; a dropped connection (coordinator restart)
	// re-enters Run, which re-dials with the shared backoff policy.
	for {
		err := node.Run(ctx)
		if ctx.Err() != nil {
			logf("icenode: exiting")
			return // drained shutdown: exit 0
		}
		if err != nil {
			logf("icenode: connection lost: %v; re-dialing", err)
		}
	}
}
