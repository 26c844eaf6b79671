package main

import (
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/icegate"
)

// Workload names. Each runs in its own process; see README.md for why
// each was chosen.
const (
	wlPCALocal = "pca-local"
	wlICUMesh  = "icu-mesh"
	wlWardOpen = "ward-open"
)

var workloadNames = []string{wlPCALocal, wlICUMesh, wlWardOpen}

// Load shape. The host the benchmark was sized on has two cores, so two
// client goroutines and two connections; the gateway config is fixed
// here rather than read from the machine so every host runs the same
// stack.
const (
	clients       = 2
	gateExecutors = 2
	gateWorkers   = 2
	gateQueue     = 256 // deep enough that a Poisson burst is queued, not refused
	meshNodes     = 2
	nodeWorkers   = 2

	wardRate = 40.0 // ward-open offered load, jobs/s
	wardPool = 64   // ward-open repeat keys, computed at setup
	warmJobs = 4    // closed-loop warm-up jobs per setup
	checkOps = 8    // requests replayed through the local reference
)

// Request classes. computed: a unique interactive request (the latency
// metrics' class); repeat: a ward-open pool key, answered from cache;
// batch: a unique request in the batch lane.
const (
	classComputed = "computed"
	classRepeat   = "repeat"
	classBatch    = "batch"
)

// op is one generated request: its position in the workload's sequence,
// what is sent, its class, and, in open loop, when it is due relative to
// the start of the window.
type op struct {
	idx   int
	req   icegate.Request
	class string
	due   time.Duration
}

// Seed spaces: request i of a run's sequence uses base+i; the set-up
// requests — pool key k at base+poolOffset+k, warm-up job j at
// base+warmOffset+j — take their base from setupSeed instead of the run's
// seed, so set-up is the same work on every run. No two requests of a run
// share a cache key by accident.
const (
	setupSeed  = 0
	poolOffset = 1 << 32
	warmOffset = 1 << 33
)

// stream is the deterministic generator for one (seed, label) pair.
func stream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// seedBase is the first request seed of a workload run.
func seedBase(seed int64, workload string) int64 {
	return 1 + stream(seed, workload+"/base").Int64N(1<<40)
}

func pcaRequest(seed int64) icegate.Request {
	return icegate.Request{Scenario: fleet.ScenarioPCASupervised, Seed: seed, Cells: 8, DurationS: 1800}
}

func probeRequest(seed int64) icegate.Request {
	return icegate.Request{Scenario: fleet.ScenarioTeleICUProbe, Seed: seed, Cells: 32,
		Knobs: map[string]float64{"rtt_ms": 8}}
}

func xrayRequest(seed int64) icegate.Request {
	return icegate.Request{Scenario: fleet.ScenarioXRayVentSync, Seed: seed, Cells: 16}
}

// Ward-open tenants: the clinicians' interactive traffic outweighs the
// background sweep 4:1 under fair queueing.
const (
	tenantBedside = "bedside"
	tenantSweep   = "sweep"
)

var wardTenants = icegate.TenantsConfig{Tenants: map[string]icegate.Quota{
	tenantBedside: {Weight: 4},
	tenantSweep:   {Weight: 1},
}}

// closedOp is request i of a closed-loop workload: a unique seed, so the
// cache never answers.
func closedOp(workload string, seed int64, i int) op {
	s := seedBase(seed, workload) + int64(i)
	req := pcaRequest(s)
	if workload == wlICUMesh {
		req = probeRequest(s)
	}
	return op{idx: i, req: req, class: classComputed}
}

// warmOps are the warm-up requests a closed-loop set-up sends.
func warmOps(workload string) []op {
	ops := make([]op, warmJobs)
	for j := range ops {
		ops[j] = closedOp(workload, setupSeed, warmOffset+j)
	}
	return ops
}

// wardPoolRequests are the repeat keys ward-open computes at set-up.
func wardPoolRequests() []icegate.Request {
	base := seedBase(setupSeed, wlWardOpen)
	reqs := make([]icegate.Request, wardPool)
	for k := range reqs {
		reqs[k] = pcaRequest(base + poolOffset + int64(k))
		reqs[k].Tenant, reqs[k].Lane = tenantBedside, icegate.LaneInteractive
	}
	return reqs
}

// wardBlock is the class mix of every ten consecutive ward-open arrivals:
// 70% pool repeats, 20% unique X-ray syncs, 10% unique batch sweeps. Mixing
// per block, not per draw, makes the share exact in every window of a
// multiple of ten requests, so the computed-cell rate does not vary with
// the seed.
var wardBlock = []string{
	classRepeat, classRepeat, classRepeat, classRepeat, classRepeat, classRepeat, classRepeat,
	classComputed, classComputed, classBatch,
}

// wardOps is ward-open's open-loop schedule for a window: n arrivals at
// times drawn uniformly over the window and sorted — a Poisson process
// conditioned on its count, so the offered rate is exact while the gaps
// keep their burstiness. The request at position i depends only on the
// seed and i, not on n.
func wardOps(seed int64, window time.Duration, n int) []op {
	base := seedBase(seed, wlWardOpen)
	pool := wardPoolRequests()
	mix := stream(seed, wlWardOpen+"/mix")
	arrive := stream(seed, wlWardOpen+"/arrivals")
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(arrive.Float64() * float64(window))
	}
	slices.Sort(dues)

	ops := make([]op, 0, n)
	block := slices.Clone(wardBlock)
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			mix.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		o := op{idx: i, class: block[i%len(block)], due: dues[i]}
		switch o.class {
		case classRepeat:
			o.req = pool[mix.IntN(wardPool)]
		case classComputed:
			o.req = xrayRequest(base + int64(i))
			o.req.Tenant, o.req.Lane = tenantBedside, icegate.LaneInteractive
		case classBatch:
			o.req = pcaRequest(base + int64(i))
			o.req.Tenant, o.req.Lane = tenantSweep, icegate.LaneBatch
		}
		ops = append(ops, o)
	}
	return ops
}

// wardArrivals is the number of arrivals in a ward-open window.
func wardArrivals(window time.Duration) int {
	return max(len(wardBlock), int(wardRate*window.Seconds()+0.5))
}

// workloadOps is the first n requests of a workload's sequence — the
// requests the output checks replay.
func workloadOps(workload string, seed int64, n int) []op {
	if workload == wlWardOpen {
		return wardOps(seed, time.Second, n)
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = closedOp(workload, seed, i)
	}
	return ops
}
