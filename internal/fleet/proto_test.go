package fleet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// protoCatalogParams returns a short-but-nontrivial parameterization for
// every built-in scenario, sized so the suite stays fast while still
// exercising boluses, supervisor stops, outages, and imaging windows.
func protoCatalogParams() map[string]Params {
	return map[string]Params{
		ScenarioPCASupervised:   {Seed: 42, Cells: 3, Duration: 30 * sim.Minute},
		ScenarioPCAUnsupervised: {Seed: 43, Cells: 3, Duration: 30 * sim.Minute},
		ScenarioPCACommFault:    {Seed: 7, Cells: 2, Duration: 30 * sim.Minute, Knobs: map[string]float64{"loss": 0.3}},
		ScenarioXRayVentSync:    {Seed: 11, Cells: 3, Knobs: map[string]float64{"requests": 12}},
	}
}

// stripWallClock zeroes the one non-deterministic field so results can
// be compared exactly.
func stripWallClock(rs []Result) []Result {
	for i := range rs {
		rs[i].WireEncodeNS = 0
	}
	return rs
}

func renderResults(rs []Result) string {
	out := ""
	for _, r := range rs {
		out += fmt.Sprintf("%d seed=%d events=%d bytes=%d err=%v metrics=%v\n",
			r.Cell.Index, r.Cell.Seed, r.Events, r.WireBytes, r.Err, r.Metrics)
	}
	return out
}

// TestPrototypeCloneByteIdentical is the core tentpole gate at the fleet
// level: for every built-in scenario, cloned cells must match
// from-scratch cells result-for-result — same metrics, same kernel event
// counts, same wire bytes — across worker counts and kernel backends.
// Sorted-map rendering via %v makes the comparison total.
func TestPrototypeCloneByteIdentical(t *testing.T) {
	defer sim.SetReferenceQueueForTest(false)
	defer SetPrototypesForTest(true)
	for name, p := range protoCatalogParams() {
		for _, ref := range []bool{false, true} {
			sim.SetReferenceQueueForTest(ref)
			spec, err := Build(name, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if spec.NewProto == nil {
				t.Fatalf("%s: catalog spec did not opt into prototyping", name)
			}
			SetPrototypesForTest(false)
			scratchRes, err := Runner{Workers: 1}.Run(spec)
			SetPrototypesForTest(true)
			if err != nil {
				t.Fatalf("%s from-scratch: %v", name, err)
			}
			baseline := renderResults(stripWallClock(scratchRes))
			for _, workers := range []int{1, 4} {
				cloneRes, err := Runner{Workers: workers}.Run(spec)
				if err != nil {
					t.Fatalf("%s clone workers=%d: %v", name, workers, err)
				}
				got := renderResults(stripWallClock(cloneRes))
				if got != baseline {
					t.Fatalf("%s ref=%v workers=%d: clone diverged from from-scratch\nclone:\n%s\nscratch:\n%s",
						name, ref, workers, got, baseline)
				}
			}
		}
	}
}

// TestPrototypeCloneAllocBudget pins the steady-state allocation cost of
// stamping a cell from a warm prototype. The budget (measured ~54 on
// go1.24: the returned metrics map, alarm formatting, and result
// bookkeeping) is deliberately loose enough to survive runtime-version
// noise but tight enough that reintroducing per-cell construction —
// hundreds of allocations — fails loudly.
func TestPrototypeCloneAllocBudget(t *testing.T) {
	const budget = 96
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 42, Cells: 1, Duration: 30 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	scratch := &Scratch{}
	proto := spec.NewProto()
	if proto == nil {
		t.Fatal("pca-supervised declined to build a prototype")
	}
	clone := func(i int) {
		scratch.reset()
		if _, err := proto.Clone(Cell{Index: i, Seed: spec.seedFor(i), scratch: scratch}); err != nil {
			t.Fatal(err)
		}
	}
	clone(0) // warm: first cell grows pools and trace buffers
	clone(1)
	i := 2
	got := testing.AllocsPerRun(5, func() { clone(i); i++ })
	if got > budget {
		t.Fatalf("per-clone allocations = %v, budget %d", got, budget)
	}
}

// TestPrototypeFallsBackWithoutNewProto pins the opt-in contract: a spec
// without NewProto runs from scratch and still produces its results.
func TestPrototypeFallsBackWithoutNewProto(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 9, Cells: 2, Duration: 20 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	withProto, err := Runner{Workers: 1}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.NewProto = nil
	without, err := Runner{Workers: 1}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(stripWallClock(withProto)) != renderResults(stripWallClock(without)) {
		t.Fatal("removing NewProto changed results")
	}
}

// TestPrototypeGlobalDisable pins the SetPrototypesForTest hook the
// experiments differential suite depends on.
func TestPrototypeGlobalDisable(t *testing.T) {
	defer SetPrototypesForTest(true)
	spec, err := Build(ScenarioXRayVentSync, Params{Seed: 3, Cells: 2, Knobs: map[string]float64{"requests": 8}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Runner{Workers: 1}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	SetPrototypesForTest(false)
	off, err := Runner{Workers: 1}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(stripWallClock(on)) != renderResults(stripWallClock(off)) {
		t.Fatal("global prototype disable changed results")
	}
}
