// Package repro's root benchmarks regenerate every experiment in
// DESIGN.md's index (the paper, a position paper, has one figure and no
// tables; F1 reproduces the figure, E2-E13 quantify its textual claims,
// and A1 ablates the supervisor design). Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its full experiment per iteration and reports
// the headline metric via b.ReportMetric, so regressions in either
// performance or experimental shape are visible. cmd/icerun prints the
// same tables for human reading, and BenchmarkFleetPCAScaling tracks
// multi-room throughput of the fleet runner as the worker pool widens.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icegate"
	"repro/internal/icemesh"
	"repro/internal/sim"
)

// cellFloat parses a formatted table cell for metric reporting.
func cellFloat(tb testing.TB, cell string) float64 {
	cleaned := ""
	for _, r := range cell {
		if (r >= '0' && r <= '9') || r == '.' || r == '-' {
			cleaned += string(r)
		} else {
			break
		}
	}
	v, err := strconv.ParseFloat(cleaned, 64)
	if err != nil {
		tb.Fatalf("unparseable cell %q: %v", cell, err)
	}
	return v
}

func BenchmarkF1PCAControlLoop(b *testing.B) {
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.F1PCAControlLoop(experiments.F1Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Row 0 unsupervised, row 1 supervised; column 1 is min SpO2.
	b.ReportMetric(cellFloat(b, last.Rows[0][1]), "minSpO2-unsup")
	b.ReportMetric(cellFloat(b, last.Rows[1][1]), "minSpO2-sup")
	b.ReportMetric(cellFloat(b, last.Rows[1][3]), "s<85-sup")
}

func BenchmarkE2XrayVentSync(b *testing.B) {
	opt := experiments.DefaultE2()
	opt.Requests = 12
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E2XrayVentSync(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Sharp counts at the 2 ms column for each protocol (rows 0, 7, 14).
	b.ReportMetric(cellFloat(b, last.Rows[0][2]), "sharp-manual-2ms")
	b.ReportMetric(cellFloat(b, last.Rows[7][2]), "sharp-pause-2ms")
	b.ReportMetric(cellFloat(b, last.Rows[14][2]), "sharp-sync-2ms")
}

func BenchmarkE3SmartAlarms(b *testing.B) {
	opt := experiments.E3Options{Seed: 3, Patients: 4, Duration: 4 * sim.Hour}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E3SmartAlarms(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][3]), "false-threshold")
	b.ReportMetric(cellFloat(b, last.Rows[2][3]), "false-full")
}

func BenchmarkE4SupervisoryControl(b *testing.B) {
	opt := experiments.E4Options{Seed: 4, Patients: 16, Duration: 2 * sim.Hour}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E4SupervisoryControl(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][3]), "danger-fixed")
	b.ReportMetric(cellFloat(b, last.Rows[1][3]), "danger-adaptive")
}

func BenchmarkE5WorkflowVerify(b *testing.B) {
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E5WorkflowVerify()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	states := 0.0
	for _, r := range last.Rows {
		states += cellFloat(b, r[2])
	}
	b.ReportMetric(states, "total-states")
}

func BenchmarkE6CommFailure(b *testing.B) {
	opt := experiments.E6Options{Seed: 7, Duration: sim.Hour, Losses: []float64{0, 0.2, 0.4}}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E6CommFailure(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Worst-case loss rows: fail-safe is row 2, fail-operational row 5.
	b.ReportMetric(cellFloat(b, last.Rows[2][3]), "s<85-failsafe-40pct")
	b.ReportMetric(cellFloat(b, last.Rows[5][3]), "s<85-failop-40pct")
}

func BenchmarkE7AdaptiveThresholds(b *testing.B) {
	opt := experiments.E7Options{Seed: 5, Athletes: 6, Average: 6, Duration: 8 * sim.Hour}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E7AdaptiveThresholds(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][3]), "false-population")
	b.ReportMetric(cellFloat(b, last.Rows[1][3]), "false-personalized")
}

func BenchmarkE8IncrementalCert(b *testing.B) {
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E8IncrementalCert()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][1]), "evidence-reexamined-row0")
}

func BenchmarkE9Security(b *testing.B) {
	opt := experiments.E9Options{Seed: 9, ForgedCommands: 100}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E9Security(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][1]), "forged-executed-open")
	b.ReportMetric(cellFloat(b, last.Rows[1][1]), "forged-executed-hmac")
}

func BenchmarkE10Telemetry(b *testing.B) {
	opt := experiments.E10Options{Seed: 10, Patients: 4}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E10Telemetry(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	slow, err := time.ParseDuration(last.Rows[0][2])
	if err != nil {
		b.Fatal(err)
	}
	fast, err := time.ParseDuration(last.Rows[len(last.Rows)-1][2])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(slow.Seconds(), "latency-sf15m-s")
	b.ReportMetric(fast.Seconds(), "latency-streaming-s")
}

func BenchmarkE11MixedCriticality(b *testing.B) {
	opt := experiments.E11Options{Seed: 11, Duration: 4 * sim.Hour, BedMoves: 8}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E11MixedCriticality(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(cellFloat(b, last.Rows[0][3]), "false-no-context")
	b.ReportMetric(cellFloat(b, last.Rows[1][3]), "false-with-context")
}

func BenchmarkA1SupervisorAblation(b *testing.B) {
	opt := experiments.A1Options{
		Seed: 42, Duration: sim.Hour,
		StopSpO2s: []float64{91, 95},
		Delays:    []time.Duration{100 * time.Millisecond, 10 * time.Second},
	}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.A1SupervisorAblation(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Corner cells: permissive/slow vs strict/fast minimum SpO2.
	b.ReportMetric(cellFloat(b, last.Rows[1][2]), "minSpO2-91-slow")
	b.ReportMetric(cellFloat(b, last.Rows[2][2]), "minSpO2-95-fast")
}

func BenchmarkE13UserModel(b *testing.B) {
	opt := experiments.E13Options{Seed: 13, RunsPerCell: 100, ErrorRates: []float64{0.05}}
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E13UserModel(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	var worst float64
	for _, r := range last.Rows {
		v := cellFloat(b, r[3])
		if v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst-P-unsafe")
}

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

func BenchmarkE12TemporalInduction(b *testing.B) {
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.E12TemporalInduction()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	proved := 0.0
	for _, r := range last.Rows {
		if r[3] == "proved" {
			proved++
		}
	}
	b.ReportMetric(proved, "proofs-closed")
}

// BenchmarkGatewayThroughput drives the icegate serving layer end to end
// over HTTP: each iteration submits one PCA ensemble as a job, polls it
// to completion, and fetches the rendered table — the serving-side
// analogue of BenchmarkFleetPCAScaling. Seeds vary per iteration so the
// deterministic result cache never short-circuits the simulation; the
// cells/s metric therefore measures scheduling + fleet + HTTP overhead,
// not cache replay.
func BenchmarkGatewayThroughput(b *testing.B) {
	const cells = 8
	sched := icegate.NewScheduler(icegate.Config{QueueDepth: 16, Executors: 2, Workers: 8})
	ts := httptest.NewServer(icegate.NewHandler(sched))
	defer func() {
		ts.Close()
		sched.Close()
	}()

	do := func(req *http.Request) map[string]any {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			b.Fatal(err)
		}
		return v
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"scenario":%q,"seed":%d,"cells":%d,"duration_s":1800}`,
			fleet.ScenarioPCASupervised, 1000+i, cells)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs",
			strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		v := do(req)
		id, _ := v["id"].(string)
		if id == "" {
			b.Fatalf("submit refused: %v", v)
		}
		for {
			get, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+id, nil)
			status, _ := do(get)["status"].(string)
			if status == "done" {
				break
			}
			if status == "failed" || status == "cancelled" {
				b.Fatalf("job %s ended %s", id, status)
			}
			time.Sleep(2 * time.Millisecond)
		}
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
