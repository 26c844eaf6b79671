package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// Options carries the harness-wide knobs into a catalog runner — the
// same triple cmd/icerun exposes as flags and the gateway accepts in a
// table-job request. Every runner is a pure function of its options, so
// a (id, options) pair keys a deterministic result cache.
type Options struct {
	Seed    int64 // base simulation seed; 0 = 1
	Cells   int   // trials per configuration for ensemble experiments (F1)
	Workers int   // fleet worker pool width for parallel cell execution

	// Engine, when non-nil, distributes fleet-backed experiments (F1,
	// E6) across it instead of the local pool — the icegate mesh backend
	// plugs the cluster in here. Deliberately NOT part of result
	// identity: the fleet's determinism contract makes tables
	// byte-identical wherever the cells ran, so engines are a deployment
	// knob exactly like Workers.
	Engine fleet.Engine

	// Trace, when active, parents the experiment's icescope spans; Obs
	// feeds the fleet's latency histograms. Both are observability-only:
	// like Workers and Engine they never enter result identity, and the
	// trace differential suite holds every table that reads them
	// byte-identical with tracing on and off.
	Trace icescope.Span
	Obs   *fleet.Obs
}

// Dims declares which of the deployment dimensions above a table reads.
// The differential tests vary each dimension only over the tables that
// declare it, and probe every other table with it to prove the table
// ignores it, so a wrong declaration fails whichever way it is wrong.
type Dims struct {
	Engine bool // ships fleet cells through Options.Engine
	Trace  bool // opens spans under Options.Trace
	Fleet  bool // runs cells on fleet.Runner, which feeds Options.Obs and clones prototypes
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cells <= 0 {
		o.Cells = 1
	}
	return o
}

type entry struct {
	id   string
	dims Dims
	run  func(o Options) (Table, error)
}

// catalog maps each experiment ID to its runner, in the canonical order
// of DESIGN.md's index. Both cmd/icerun and the icegate gateway serve
// from this table, so every experiment is equally runnable locally and
// remotely.
var catalog = []entry{
	{"F1", Dims{Engine: true, Trace: true, Fleet: true}, func(o Options) (Table, error) {
		return F1PCAControlLoop(F1Options{
			Seed: o.Seed, Trials: o.Cells, Workers: o.Workers,
			Engine: o.Engine, Trace: o.Trace, Obs: o.Obs,
		})
	}},
	{"E2", Dims{}, func(o Options) (Table, error) {
		opt := DefaultE2()
		opt.Seed = o.Seed
		return E2XrayVentSync(opt)
	}},
	{"E3", Dims{}, func(o Options) (Table, error) {
		return E3SmartAlarms(E3Options{Seed: o.Seed})
	}},
	{"E4", Dims{}, func(o Options) (Table, error) {
		return E4SupervisoryControl(E4Options{Seed: o.Seed})
	}},
	{"E5", Dims{}, func(Options) (Table, error) { return E5WorkflowVerify() }},
	{"E6", Dims{Engine: true, Trace: true, Fleet: true}, func(o Options) (Table, error) {
		opt := DefaultE6()
		opt.Seed = o.Seed
		opt.Workers = o.Workers
		opt.Engine = o.Engine
		opt.Trace = o.Trace
		opt.Obs = o.Obs
		return E6CommFailure(opt)
	}},
	{"E7", Dims{Trace: true, Fleet: true}, func(o Options) (Table, error) {
		return E7AdaptiveThresholds(E7Options{Seed: o.Seed, Workers: o.Workers, Trace: o.Trace, Obs: o.Obs})
	}},
	{"E8", Dims{}, func(Options) (Table, error) { return E8IncrementalCert() }},
	{"E9", Dims{}, func(o Options) (Table, error) {
		return E9Security(E9Options{Seed: o.Seed})
	}},
	{"E10", Dims{}, func(o Options) (Table, error) {
		return E10Telemetry(E10Options{Seed: o.Seed})
	}},
	{"E11", Dims{}, func(o Options) (Table, error) {
		return E11MixedCriticality(E11Options{Seed: o.Seed})
	}},
	{"E12", Dims{}, func(Options) (Table, error) { return E12TemporalInduction() }},
	{"E13", Dims{}, func(o Options) (Table, error) {
		opt := DefaultE13()
		opt.Seed = o.Seed
		return E13UserModel(opt)
	}},
	{"A1", Dims{}, func(o Options) (Table, error) {
		opt := DefaultA1()
		opt.Seed = o.Seed
		return A1SupervisorAblation(opt)
	}},
}

// IDs lists the catalog's experiment IDs in canonical (DESIGN.md) order.
func IDs() []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = e.id
	}
	return out
}

// find returns the catalog entry for id, or nil.
func find(id string) *entry {
	for i := range catalog {
		if catalog[i].id == id {
			return &catalog[i]
		}
	}
	return nil
}

// Has reports whether the catalog knows the experiment ID.
func Has(id string) bool { return find(id) != nil }

// Consumes returns the dimensions the experiment declares it reads (the
// zero Dims for an unknown ID).
func Consumes(id string) Dims {
	if e := find(id); e != nil {
		return e.dims
	}
	return Dims{}
}

// Run executes one catalog experiment. Unknown IDs error; options get
// their harness defaults (seed 1, one cell) so a zero Options reproduces
// the historical serial tables.
func Run(id string, o Options) (Table, error) {
	e := find(id)
	if e == nil {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	o = o.withDefaults()
	if !o.Trace.Active() {
		return e.run(o)
	}
	sp := o.Trace.Child("exp " + id)
	o.Trace = sp
	tab, err := e.run(o)
	sp.End()
	return tab, err
}
