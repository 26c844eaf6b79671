package fleet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Params parameterize a registered scenario factory.
type Params struct {
	Seed     int64
	Cells    int
	Duration sim.Time // 0 = scenario default

	// Knobs carries scenario-specific numeric parameters ("loss",
	// "failsafe", ...). Factories read them with Knob.
	Knobs map[string]float64
}

// Knob returns the named knob or def when unset.
func (p Params) Knob(name string, def float64) float64 {
	if v, ok := p.Knobs[name]; ok {
		return v
	}
	return def
}

// Factory builds an ensemble spec for a named scenario.
type Factory func(p Params) Spec

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a named scenario factory. Duplicate names panic:
// registration happens at init time and a collision is a programming bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("fleet: duplicate scenario %q", name))
	}
	if f == nil {
		panic(fmt.Sprintf("fleet: nil factory for %q", name))
	}
	registry[name] = f
}

// Names lists registered scenarios, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build resolves a scenario by name and instantiates its spec. Built
// specs carry provenance — the (name, params) pair they came from — so a
// distributed engine can rebuild the identical spec on a remote node
// (see Spec.Provenance and Runner.Engine).
func Build(name string, p Params) (Spec, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Spec{}, fmt.Errorf("fleet: unknown scenario %q (have %v)", name, Names())
	}
	if p.Cells <= 0 {
		p.Cells = 1
	}
	spec := f(p)
	spec.scenario = name
	p.Cells = spec.Cells // factories may resize; provenance must rebuild identically
	spec.params = p
	return spec, nil
}

// EnsembleSeeds is the seed rule for trial ensembles: cell 0 replays the
// base seed exactly (so a 1-cell fleet reproduces the legacy serial run
// bit-for-bit), and later cells draw named substreams.
func EnsembleSeeds(seed int64, label string) func(index int) int64 {
	return func(index int) int64 {
		if index == 0 {
			return seed
		}
		return sim.SubSeed(seed, label, index)
	}
}
