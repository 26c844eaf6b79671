package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// mathSpec is a cheap synthetic workload: each cell draws from its own
// seeded stream, so any cross-cell interference or order dependence shows
// up as a metric change.
func mathSpec(name string, seed int64, cells int) Spec {
	return Spec{
		Name:  name,
		Seed:  seed,
		Cells: cells,
		Run: func(c Cell) (Metrics, error) {
			rng := c.RNG()
			total := 0.0
			for i := 0; i < 1000; i++ {
				total += rng.Normal(0, 1)
			}
			return Metrics{"total": total, "seed": float64(c.Seed), "index": float64(c.Index)}, nil
		},
	}
}

// The tentpole guarantee: a fixed seed produces byte-identical reduced
// output at any worker count.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	var baseline []Result
	var baselineSummary string
	for _, workers := range []int{1, 4, 8} {
		results, err := Runner{Workers: workers}.Run(mathSpec("det", 99, 32))
		if err != nil {
			t.Fatal(err)
		}
		rendered := Reduce(results).String()
		if baseline == nil {
			baseline, baselineSummary = results, rendered
			continue
		}
		if !reflect.DeepEqual(results, baseline) {
			t.Fatalf("per-cell results differ at %d workers", workers)
		}
		if rendered != baselineSummary {
			t.Fatalf("reduced summary differs at %d workers:\n%s\nvs\n%s", workers, rendered, baselineSummary)
		}
	}
}

func TestRunAllFlattensAcrossSpecs(t *testing.T) {
	specs := []Spec{mathSpec("a", 1, 5), mathSpec("b", 2, 3)}
	groups, err := Runner{Workers: 4}.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 5 || len(groups[1]) != 3 {
		t.Fatalf("group shape wrong: %d/%d/%d", len(groups), len(groups[0]), len(groups[1]))
	}
	for si, g := range groups {
		for ci, r := range g {
			if r.Cell.Index != ci {
				t.Fatalf("spec %d cell %d stored at wrong index %d", si, ci, r.Cell.Index)
			}
			if r.Cell.Seed != sim.SubSeed(specs[si].Seed, specs[si].Name, ci) {
				t.Fatalf("spec %d cell %d has wrong derived seed", si, ci)
			}
		}
	}
}

func TestSeedDerivationIndependentOfOtherCells(t *testing.T) {
	// Cell 7's world must not depend on how many cells the fleet has.
	small, err := Runner{}.Run(mathSpec("ind", 5, 8))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Runner{Workers: 8}.Run(mathSpec("ind", 5, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(small[7], big[7]) {
		t.Fatalf("cell 7 changed when the fleet grew: %+v vs %+v", small[7], big[7])
	}
}

func TestRunnerCollectsErrorsAndPanics(t *testing.T) {
	spec := Spec{
		Name:  "faulty",
		Cells: 4,
		Run: func(c Cell) (Metrics, error) {
			switch c.Index {
			case 1:
				return nil, errors.New("boom")
			case 2:
				panic("kernel causality violation")
			}
			return Metrics{"ok": 1}, nil
		},
	}
	results, err := Runner{Workers: 4}.Run(spec)
	if err == nil {
		t.Fatal("expected joined error")
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("per-cell errors not recorded: %+v", results)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("healthy cells errored: %+v", results)
	}
	sum := Reduce(results)
	if sum.Cells != 2 || sum.Failed != 2 {
		t.Fatalf("summary cells=%d failed=%d", sum.Cells, sum.Failed)
	}
}

func TestReduceAggregates(t *testing.T) {
	var results []Result
	for i := 0; i < 10; i++ {
		results = append(results, Result{
			Cell:    Cell{Index: i},
			Metrics: Metrics{"v": float64(i), "hit": boolMetric(i >= 7)},
		})
	}
	s := Reduce(results)
	if got := s.Sum("v"); got != 45 {
		t.Fatalf("sum = %v", got)
	}
	if got := s.Mean("v"); got != 4.5 {
		t.Fatalf("mean = %v", got)
	}
	if s.Min("v") != 0 || s.Max("v") != 9 {
		t.Fatalf("min/max = %v/%v", s.Min("v"), s.Max("v"))
	}
	if got := s.Percentile("v", 50); got != 4 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile("v", 100); got != 9 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.CountAbove("hit", 0.5); got != 3 {
		t.Fatalf("count above = %v", got)
	}
	if got := s.Names(); len(got) != 2 || got[0] != "hit" || got[1] != "v" {
		t.Fatalf("names = %v", got)
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestRegistryBuildsCatalogScenarios(t *testing.T) {
	names := Names()
	for _, want := range []string{ScenarioPCASupervised, ScenarioPCAUnsupervised, ScenarioPCACommFault} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("scenario %q not registered (have %v)", want, names)
		}
	}
	if _, err := Build("no-such-scenario", Params{}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// A real patient-room fleet — each cell is a full PCA rig with its own
// kernel, network, manager, devices and patient — must also be
// deterministic under parallelism. Run with -race this doubles as the
// isolation proof: any shared mutable state across rooms is a data race.
func TestPCAFleetDeterministicAcrossWorkers(t *testing.T) {
	build := func() Spec {
		spec, err := Build(ScenarioPCASupervised, Params{Seed: 42, Cells: 4, Duration: 10 * sim.Minute})
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	var baseline string
	for _, workers := range []int{1, 4, 8} {
		results, err := Runner{Workers: workers}.Run(build())
		if err != nil {
			t.Fatal(err)
		}
		rendered := Reduce(results).String()
		for i, r := range results {
			rendered += fmt.Sprintf("cell %d seed %d spo2 %v\n", i, r.Cell.Seed, r.Metrics["min_spo2"])
		}
		if baseline == "" {
			baseline = rendered
			continue
		}
		if rendered != baseline {
			t.Fatalf("PCA fleet output differs at %d workers:\n%s\nvs\n%s", workers, rendered, baseline)
		}
	}
	// Trial 0 must replay the base seed so 1-cell fleets reproduce the
	// legacy serial experiments bit-for-bit.
	results, err := Runner{}.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cell.Seed != 42 {
		t.Fatalf("trial 0 seed = %d, want base seed 42", results[0].Cell.Seed)
	}
}

// blockSpec builds a spec whose cells block on release until freed, so
// tests can hold a fleet mid-flight deterministically.
func blockSpec(name string, cells int, release <-chan struct{}, started chan<- int) Spec {
	return Spec{
		Name:  name,
		Cells: cells,
		Run: func(c Cell) (Metrics, error) {
			if started != nil {
				started <- c.Index
			}
			<-release
			return Metrics{"index": float64(c.Index)}, nil
		},
	}
}

func TestRunContextMatchesRunWhenUncancelled(t *testing.T) {
	spec := mathSpec("ctx-eq", 11, 16)
	plain, err := Runner{Workers: 4}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Runner{Workers: 4}.RunContext(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Fatal("RunContext diverged from Run without cancellation")
	}
}

func TestRunContextCancellationSkipsUndispatchedCells(t *testing.T) {
	release := make(chan struct{})
	started := make(chan int, 1)
	ctx, cancel := context.WithCancel(context.Background())

	// One worker: cell 0 starts and blocks, cells 1..3 are undispatched.
	done := make(chan struct{})
	var results []Result
	var runErr error
	go func() {
		defer close(done)
		results, runErr = Runner{Workers: 1}.RunContext(ctx, blockSpec("cancel", 4, release, started), nil)
	}()
	<-started
	cancel()
	close(release)
	<-done

	if runErr == nil || !errors.Is(runErr, context.Canceled) {
		t.Fatalf("joined error should report cancellation, got %v", runErr)
	}
	if results[0].Err != nil || results[0].Metrics["index"] != 0 {
		t.Fatalf("in-flight cell should complete: %+v", results[0])
	}
	skipped := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
			if r.Cell.Seed == 0 && r.Cell.Index > 0 {
				// seedFor still ran; default derivation is never 0 here
				t.Fatalf("skipped cell %d lost its derived seed", r.Cell.Index)
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("no cells recorded as skipped: %+v", results)
	}
	if sum := Reduce(results); sum.Failed != skipped || sum.Cells != 4-skipped {
		t.Fatalf("summary cells=%d failed=%d want %d/%d", sum.Cells, sum.Failed, 4-skipped, skipped)
	}
}

func TestRunContextDeliversEachCellOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	results, err := Runner{Workers: 8}.RunContext(context.Background(), mathSpec("deliver", 3, 24),
		func(r Result) {
			// onCell is serialized by the runner; the mutex guards against
			// regressions of that guarantee under -race.
			mu.Lock()
			seen[r.Cell.Index]++
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 24 {
		t.Fatalf("delivered %d distinct cells, want 24", len(seen))
	}
	for i, r := range results {
		if seen[i] != 1 {
			t.Fatalf("cell %d delivered %d times", i, seen[i])
		}
		if r.Metrics == nil {
			t.Fatalf("cell %d missing metrics", i)
		}
	}
}

func TestNamesSortedAndBuildable(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("catalog too small: %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, n := range names {
		if _, err := Build(n, Params{Seed: 1, Cells: 1}); err != nil {
			t.Fatalf("registered scenario %q does not build: %v", n, err)
		}
	}
}

// A requested duration must shape the xray session (one image request
// per 20 s of session), not be silently dropped: the gateway keys its
// result cache on duration, so a dropped parameter would cache default
// results under a non-default key.
func TestXRaySyncScenarioHonorsDuration(t *testing.T) {
	run := func(d sim.Time) float64 {
		spec, err := Build(ScenarioXRayVentSync, Params{
			Seed: 3, Cells: 1, Duration: d,
			Knobs: map[string]float64{"loss": 0}, // lossless: every request resolves
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Runner{}.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := res[0].Metrics
		return m["sharp"] + m["blurred"] + m["deferred"]
	}
	if got := run(10 * sim.Minute); got != 30 { // 600 s / 20 s spacing
		t.Fatalf("10-minute session resolved %v requests, want 30", got)
	}
	if got := run(0); got != 24 { // scenario default
		t.Fatalf("default session resolved %v requests, want 24", got)
	}
}

// The probe scenario's pacing is observability-grade only: rtt knobs
// change wall time, never table bytes.
func TestTeleICUProbePacingIsByteInvisible(t *testing.T) {
	base := Params{Seed: 11, Cells: 3}
	paced := Params{Seed: 11, Cells: 3, Knobs: map[string]float64{"rtt_ms": 2, "jitter": 0.5}}
	specA, err := Build(ScenarioTeleICUProbe, base)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := Build(ScenarioTeleICUProbe, paced)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Runner{Workers: 2}.Run(specA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Runner{Workers: 2}.Run(specB)
	if err != nil {
		t.Fatal(err)
	}
	if stable(ra) != stable(rb) {
		t.Fatalf("rtt pacing changed table bytes:\n%+v\nvs\n%+v", ra, rb)
	}
}

func TestKnownKnobsDeclarations(t *testing.T) {
	knobs, ok := KnownKnobs(ScenarioXRayVentSync)
	if !ok || len(knobs) != 4 {
		t.Fatalf("xray knobs = %v, %v", knobs, ok)
	}
	if knobs, ok := KnownKnobs(ScenarioPCASupervised); !ok || len(knobs) != 0 {
		t.Fatalf("pca-supervised should declare an empty knob set, got %v, %v", knobs, ok)
	}
	if _, ok := KnownKnobs("not-registered-here"); ok {
		t.Fatal("undeclared scenario claims a knob set")
	}
}
