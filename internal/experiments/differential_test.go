package experiments

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// The differential determinism suite along the kernel-backend axis: the
// arena kernel must reproduce the pre-refactor container/heap kernel
// byte for byte at the level that matters — rendered experiment tables
// and reduced fleet summaries — at every worker count. The reference
// backend lives in internal/sim/refqueue.go solely to anchor this
// comparison.

// differentially renders the same workload on both kernel backends at
// 1 and 4 workers and asserts every rendering is byte-identical.
func differentially(t *testing.T, render func(workers int) (string, error)) {
	t.Helper()
	defer sim.SetReferenceQueueForTest(false)
	var baseline string
	for _, ref := range []bool{false, true} {
		sim.SetReferenceQueueForTest(ref)
		label := "kernel=arena"
		if ref {
			label = "kernel=reference"
		}
		for _, workers := range []int{1, 4} {
			out, err := render(workers)
			if err != nil {
				t.Fatal(err)
			}
			if baseline == "" {
				baseline = out
			} else if out != baseline {
				t.Fatalf("%s workers=%d diverged:\n%s\nvs baseline:\n%s", label, workers, out, baseline)
			}
		}
	}
}

func TestDifferentialF1(t *testing.T) {
	differentially(t, func(workers int) (string, error) {
		tab, err := F1PCAControlLoop(F1Options{
			Seed: 42, Duration: 30 * sim.Minute, Trials: 3, Fleet: fleet.Runner{Workers: workers},
		})
		return tab.String(), err
	})
}

func TestDifferentialE6(t *testing.T) {
	differentially(t, func(workers int) (string, error) {
		tab, err := E6CommFailure(E6Options{
			Seed: 7, Duration: 30 * sim.Minute, Losses: []float64{0, 0.3}, Fleet: fleet.Runner{Workers: workers},
		})
		return tab.String(), err
	})
}

func TestDifferentialE7(t *testing.T) {
	differentially(t, func(workers int) (string, error) {
		tab, err := E7AdaptiveThresholds(E7Options{
			Seed: 5, Athletes: 3, Average: 3, Duration: 2 * sim.Hour, Fleet: fleet.Runner{Workers: workers},
		})
		return tab.String(), err
	})
}

func TestDifferentialXRayVentSyncFleet(t *testing.T) {
	differentially(t, func(workers int) (string, error) {
		spec, err := fleet.Build(fleet.ScenarioXRayVentSync, fleet.Params{
			Seed: 11, Cells: 4,
			Knobs: map[string]float64{"requests": 12},
		})
		if err != nil {
			return "", err
		}
		res, err := fleet.Runner{Workers: workers}.Run(spec)
		if err != nil {
			return "", err
		}
		return fleet.Reduce(res).String(), nil
	})
}
