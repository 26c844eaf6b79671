// Package fleet runs ensembles of isolated patient-room simulations in
// parallel. The simulation kernel, network, and device models are all
// single-threaded by construction (see sim.Kernel, mednet.Network), so
// scale comes from running many *independent* rooms concurrently rather
// than from threading one room: a Cell bundles one room's entire world —
// its own kernel, network, ICE manager, devices, and patient — behind a
// CellFunc, a Runner executes N cells on a Pool of cell slots, and a
// Summary reduces the per-cell metrics.
//
// Determinism under parallelism is the load-bearing guarantee: each cell's
// seed is a pure function of its index — by default
// sim.SubSeed(spec seed, spec name, index), though specs may install their
// own pure SeedFn (the catalog's trial ensembles replay the base seed at
// cell 0 via EnsembleSeeds, and sweep points pin every cell to it) — cells
// share no mutable state, and results are collected by cell index, so a
// fixed seed produces byte-identical reduced output whether the fleet runs
// on 1 slot or 64.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/closedloop"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// Metrics is the named numeric outcome of one cell. Cell bodies outside
// this package return plain map[string]float64 (assignable to Metrics) so
// scenario packages need not import fleet.
type Metrics map[string]float64

// MetricSimEvents is the reserved metric key under which cell bodies
// report their kernel's executed-event total. The runner lifts it out of
// the metrics map into Result.Events before results are reduced or
// streamed, so the engine counter never pollutes clinical tables. The
// constant is defined in closedloop (scenario packages return plain maps
// and stay free of fleet imports); fleet aliases it so the two layers
// cannot drift.
const MetricSimEvents = closedloop.MetricSimEvents

// MetricWireBytes and MetricWireEncodeNS are the reserved wire-codec
// counters, lifted into Result.WireBytes / Result.WireEncodeNS the same
// way (see closedloop for the definitions).
const (
	MetricWireBytes    = closedloop.MetricWireBytes
	MetricWireEncodeNS = closedloop.MetricWireEncodeNS
)

// Cell identifies one room of the fleet to its builder.
type Cell struct {
	Index int   // position in the ensemble, 0-based
	Seed  int64 // per-cell seed, derived deterministically by the runner

	// scratch is the slot's reusable per-cell state; nil outside a
	// runner (Cell.Trace then allocates fresh).
	scratch *Scratch
}

// RNG returns the cell's root generator. Models inside the cell should
// Fork it exactly as a standalone scenario would.
func (c Cell) RNG() *sim.RNG { return sim.NewRNG(c.Seed) }

// Trace returns an empty trace for the cell's scenario to record into.
// Inside a runner it is the slot's pooled trace — Reset between cells,
// so ensemble runs reuse sample buffers instead of reallocating them —
// and the recorded contents remain a pure function of the cell either
// way. The trace is only valid until the cell function returns; results
// must not retain it.
func (c Cell) Trace() *sim.Trace {
	if c.scratch != nil {
		return c.scratch.trace()
	}
	return sim.NewTrace()
}

// Scratch is one pool slot's reusable per-cell state. Only the cell
// holding the slot touches it, so pooling introduces no sharing between
// concurrent cells and cannot perturb determinism.
type Scratch struct {
	tr *sim.Trace
}

func (s *Scratch) trace() *sim.Trace {
	if s.tr == nil {
		s.tr = sim.NewTrace()
	}
	return s.tr
}

// reset prepares the scratch for the next cell.
func (s *Scratch) reset() {
	if s.tr != nil {
		s.tr.Reset()
	}
}

// CellFunc builds and runs one isolated room and returns its metrics.
// The runner calls it on the cell's own goroutine, one cell per call; it
// must not share mutable state with other cells.
type CellFunc func(c Cell) (Metrics, error)

// Spec describes one ensemble: how many cells, how they are seeded, and
// how each is built and run.
type Spec struct {
	Name  string // registry/reporting name; also the seed-derivation label
	Seed  int64  // base seed for the ensemble
	Cells int

	// SeedFn overrides per-cell seed derivation. Nil means
	// sim.SubSeed(Seed, Name, index). Sweep-shaped specs that replay one
	// scenario under different parameters typically pin every cell to the
	// base seed instead, so the sweep axis is the only thing that varies.
	SeedFn func(index int) int64

	Run CellFunc

	// scenario/params, when set, record how Build produced this spec —
	// the provenance a distributed engine needs to rebuild the identical
	// spec in another process (a spec's closures cannot travel). Hand-
	// built specs carry none and always execute on the local pool.
	scenario string
	params   Params
}

// Provenance reports the registry name and Params this spec was built
// from; ok is false for hand-built specs, which no engine can ship.
func (s Spec) Provenance() (scenario string, p Params, ok bool) {
	return s.scenario, s.params, s.scenario != ""
}

func (s Spec) validate() error {
	if s.Run == nil {
		return fmt.Errorf("fleet: spec %q has no Run", s.Name)
	}
	if s.Cells < 0 {
		return fmt.Errorf("fleet: spec %q has %d cells", s.Name, s.Cells)
	}
	return nil
}

func (s Spec) seedFor(i int) int64 {
	if s.SeedFn != nil {
		return s.SeedFn(i)
	}
	return sim.SubSeed(s.Seed, s.Name, i)
}

// Result is one cell's outcome.
type Result struct {
	Cell    Cell
	Metrics Metrics
	// Events is the cell kernel's executed-event total, lifted from the
	// reserved MetricSimEvents key (0 when the cell body does not report
	// it). The serving layer sums it into true events/s gauges.
	Events uint64
	// WireBytes and WireEncodeNS are the cell codec's encoded envelope
	// bytes and sampled encode time, lifted from the reserved wire
	// metric keys the same way.
	WireBytes    uint64
	WireEncodeNS uint64
	Err          error
}

// Obs receives the fleet's timing metrics when a caller wires a runner
// into an icescope registry. All fields are optional; a nil Obs (the
// default) skips every clock read, so un-observed runs pay nothing.
type Obs struct {
	// CellSeconds observes each cell's execution latency (build + run).
	CellSeconds *icescope.Histogram
	// QueueWaitSeconds observes how long each cell sat between dispatch
	// and a pool slot picking it up — the pool-saturation signal.
	QueueWaitSeconds *icescope.Histogram
}

// Runner executes specs on a pool of cell slots. The zero value runs
// serially (one slot).
type Runner struct {
	// Pool, when non-nil, is the slot pool the run's local cells share
	// with every other run on it. Nil means a pool of Workers slots made
	// for the call.
	Pool *Pool

	Workers int // slots of the per-call pool when Pool is nil; <=0 means 1

	// Engine, when non-nil, executes Build-provenanced specs remotely
	// instead of on the local pool (see Engine). Hand-built specs — those
	// without Provenance — still run locally, so mixed workloads degrade
	// to exactly the local behavior rather than failing.
	Engine Engine

	// Span, when active, parents the run's trace: each local cell's span
	// lands on its pool slot's Chrome lane, and engine-shipped specs
	// propagate the span over the context so a distributed coordinator
	// can attach its shard spans to the same tree. The zero Span disables
	// tracing entirely — observability never touches cell seeds,
	// scheduling, or results.
	Span icescope.Span

	// Obs, when non-nil, feeds the fleet's latency histograms.
	Obs *Obs
}

// stamp reads the clock only when queue-wait observation is on.
func (r Runner) stamp() time.Time {
	if r.Obs != nil && r.Obs.QueueWaitSeconds != nil {
		return time.Now()
	}
	return time.Time{}
}

// observeWait records dispatch-to-pickup latency for one cell.
func (r Runner) observeWait(enq time.Time) {
	if !enq.IsZero() {
		r.Obs.QueueWaitSeconds.Observe(time.Since(enq).Seconds())
	}
}

// Run executes every cell of one spec and returns results in cell order.
// The returned error joins all per-cell errors; the slice is complete
// either way, so callers can report partial fleets.
func (r Runner) Run(spec Spec) ([]Result, error) {
	return r.RunContext(context.Background(), spec, nil)
}

// RunContext is Run with cancellation and incremental delivery: cells not
// yet dispatched when ctx is cancelled are skipped (their Result carries
// ctx.Err()), and onCell, when non-nil, is invoked once per executed cell
// as it completes. See RunAllContext for the exact semantics.
func (r Runner) RunContext(ctx context.Context, spec Spec, onCell func(Result)) ([]Result, error) {
	all, err := r.RunAllContext(ctx, []Spec{spec}, onCell)
	if len(all) == 0 {
		return nil, err // spec failed validation
	}
	return all[0], err
}

// RunAll schedules the cells of several specs over one pool and returns
// results grouped by spec, each group in cell order. Scheduling order
// never affects results: cells are independent and slot into their own
// result index.
func (r Runner) RunAll(specs []Spec) ([][]Result, error) {
	return r.RunAllContext(context.Background(), specs, nil)
}

// RunAllContext is RunAll plus two serving-layer affordances:
//
// Cancellation: when ctx is cancelled, no further cells are dispatched.
// Cells already executing run to completion (a simulation cell is not
// interruptible mid-kernel), skipped cells get a Result whose Err is
// ctx.Err(), and the joined error reports the cancellation once. An
// uncancelled run returns exactly what RunAll would.
//
// Incremental delivery: onCell, when non-nil, is called once per executed
// cell as soon as it finishes, from the runner's goroutines but never
// concurrently with itself, so callers can stream results without their
// own locking. Completion order is scheduling-dependent; the returned
// slices remain in deterministic cell order.
func (r Runner) RunAllContext(ctx context.Context, specs []Spec, onCell func(Result)) ([][]Result, error) {
	for _, s := range specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	deliver := serialize(onCell)
	out := make([][]Result, len(specs))
	var errs []error
	var local []group
	for i := range specs {
		out[i] = make([]Result, specs[i].Cells)
		// Specs the engine can ship (provenance from Build) run remotely,
		// one ensemble at a time — each fans its cells out across the
		// cluster, so the parallelism lives inside the engine. Everything
		// else shares the local pool below.
		if r.Engine != nil && specs[i].scenario != "" {
			if err := r.runEngineSpec(ctx, specs[i], out[i], deliver); err != nil {
				errs = append(errs, err)
			}
			continue
		}
		local = append(local, group{spec: &specs[i], out: out[i]})
	}
	errs = append(errs, r.runLocal(ctx, local, deliver)...)
	return out, errors.Join(errs...)
}

// runCell builds and runs one cell through its spec's Run, converting a
// panic in the model (the sim kernel panics on causality violations)
// into a per-cell error so one bad room cannot take down the fleet. The
// scratch pointer is stripped from the stored Result so pooled buffers
// never escape the slot. The cell's span runs on lane, its Chrome tid
// (a pool slot's id + 1).
func (r Runner) runCell(s Spec, i int, scratch *Scratch, lane int32) (res Result) {
	seed := s.seedFor(i)
	res.Cell = Cell{Index: i, Seed: seed}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("cell panicked: %v", p)
		}
	}()
	if scratch != nil {
		scratch.reset()
	}
	var t0 time.Time
	if r.Obs != nil && r.Obs.CellSeconds != nil {
		t0 = time.Now()
	}
	sp := r.Span.ChildOn(lane, "cell run")
	m, err := s.Run(Cell{Index: i, Seed: seed, scratch: scratch})
	sp.End(icescope.IntAttr("cell", i))
	if !t0.IsZero() {
		r.Obs.CellSeconds.Observe(time.Since(t0).Seconds())
	}
	if ev, ok := m[MetricSimEvents]; ok {
		res.Events = uint64(ev)
		delete(m, MetricSimEvents)
	}
	if wb, ok := m[MetricWireBytes]; ok {
		res.WireBytes = uint64(wb)
		delete(m, MetricWireBytes)
	}
	if wn, ok := m[MetricWireEncodeNS]; ok {
		res.WireEncodeNS = uint64(wn)
		delete(m, MetricWireEncodeNS)
	}
	res.Metrics, res.Err = m, err
	return res
}
