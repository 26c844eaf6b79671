// Package repro's root benchmarks measure the fleet runner's throughput
// as its worker pool widens (BenchmarkFleetPCAScaling) and an in-process
// icemesh cluster's as nodes join (BenchmarkMeshScaling). CI runs each
// once as a smoke test:
//
//	go test -run '^$' -bench BenchmarkFleetPCAScaling -benchtime 1x .
//	go test -run '^$' -bench BenchmarkMeshScaling -benchtime 1x -short .
//
// The experiment tables are pinned by internal/experiments'
// tables.golden and checked for shape by its tests; end-to-end
// performance through icegated is cmd/icebench's job (BENCHMARK.json).
package repro

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/fleet"
	"repro/internal/icemesh"
	"repro/internal/sim"
)

// BenchmarkFleetPCAScaling runs a fixed fleet of independent PCA patient
// rooms at increasing worker counts, with prototype cloning on (proto=1,
// the default path) and off (proto=0, every cell constructed from
// scratch). The cells/s metric is the headline: it should scale with
// workers up to the core count, proto=0 is the baseline cloning is
// weighed against, and the reduced clinical outcome stays bit-identical
// across all of it (the determinism tests assert the bytes; the
// benchmark reports the mean nadir as a tripwire).
func BenchmarkFleetPCAScaling(b *testing.B) {
	const cells = 8
	for _, proto := range []bool{true, false} {
		for _, workers := range []int{1, 2, 4, 8} {
			p := 0
			if proto {
				p = 1
			}
			b.Run(fmt.Sprintf("workers=%d/proto=%d", workers, p), func(b *testing.B) {
				spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{
					Seed: 42, Cells: cells, Duration: 30 * sim.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				fleet.SetPrototypesForTest(proto)
				defer fleet.SetPrototypesForTest(true)
				runner := fleet.Runner{Workers: workers}
				var last []fleet.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := runner.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
				b.ReportMetric(fleet.Reduce(last).Mean(closedloop.MetricMinSpO2), "mean-minSpO2")
			})
		}
	}
}

// BenchmarkMeshScaling drives a latency-bound tele-ICU probe fleet
// through an in-process icemesh cluster (coordinator + N node runtimes
// over real TCP on localhost) at increasing node counts. Probe cells
// spend most of their wall time waiting on a seed-derived remote RTT
// (rtt_ms knob), not on the CPU, so adding nodes buys real concurrency
// even on a single-core host — this is the workload the streaming
// work-stealing coordinator has to scale: cells/s at 2 nodes should be
// >= 1.8x the 1-node rate, and >= 3.4x at 4 nodes. The reduced clinical
// outcome stays bit-identical to local execution (the mesh differential
// tests assert the bytes; the benchmark reports the mean nadir as a
// tripwire). Set -benchtime 1x: one iteration runs the full fleet.
func BenchmarkMeshScaling(b *testing.B) {
	cells := 10000
	if testing.Short() {
		cells = 400
	}
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			coord := icemesh.NewCoordinator(icemesh.Config{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go coord.Serve(ln)
			ctx, cancel := context.WithCancel(context.Background())
			defer func() { cancel(); ln.Close(); coord.Close() }()
			for i := 0; i < nodes; i++ {
				node := icemesh.NewNode(icemesh.NodeConfig{
					Coordinator: ln.Addr().String(), Workers: 2,
				})
				go func() { _ = node.Run(ctx) }()
			}
			waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
			defer waitCancel()
			if err := coord.WaitForNodes(waitCtx, nodes); err != nil {
				b.Fatal(err)
			}

			spec, err := fleet.Build(fleet.ScenarioTeleICUProbe, fleet.Params{
				Seed: 42, Cells: cells, Duration: sim.Minute,
				Knobs: map[string]float64{"rtt_ms": 8},
			})
			if err != nil {
				b.Fatal(err)
			}
			runner := fleet.Runner{Workers: 2, Engine: coord}
			var last []fleet.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(fleet.Reduce(last).Mean(closedloop.MetricMinSpO2), "mean-minSpO2")
		})
	}
}
