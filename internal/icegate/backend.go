package icegate

import "repro/internal/fleet"

// Backend is where a job's fleet cells execute: this process's cell
// pool, or a distribution engine that fans them out across a cluster.
// The gateway's contract makes the choice invisible to clients — the
// fleet's determinism guarantee holds across processes, so the cache,
// admission control, and NDJSON streaming behave identically on every
// backend; only capacity changes.
//
// internal/icemesh's Coordinator satisfies this interface structurally
// (Name "mesh", Engine = itself), which is how cmd/icegated plugs a
// worker cluster in without icegate importing icemesh.
type Backend interface {
	// Name labels the backend in /metrics and logs ("local", "mesh").
	Name() string
	// Engine is the fleet engine jobs run on; nil means in-process.
	Engine() fleet.Engine
}

// backendMetrics is the optional extra a backend can implement to
// append its own gauges (node liveness, shard retries, per-node
// throughput) to the gateway's /metrics.
type backendMetrics interface {
	MetricsText() string
}

// LocalBackend is the default Backend: cells execute on the scheduler's
// own cell pool.
type LocalBackend struct{}

// Name implements Backend.
func (LocalBackend) Name() string { return "local" }

// Engine implements Backend: nil selects the in-process pool.
func (LocalBackend) Engine() fleet.Engine { return nil }
