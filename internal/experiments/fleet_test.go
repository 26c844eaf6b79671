package experiments

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// The fleet-runner acceptance criterion: for a fixed seed the rendered
// experiment table must be byte-identical no matter how many workers
// execute the cells.

func tableAcrossWorkers(t *testing.T, run func(workers int) (Table, error)) {
	t.Helper()
	var baseline string
	for _, workers := range []int{1, 4, 8} {
		tab, err := run(workers)
		if err != nil {
			t.Fatal(err)
		}
		rendered := tab.String()
		if baseline == "" {
			baseline = rendered
			continue
		}
		if rendered != baseline {
			t.Fatalf("table differs at %d workers:\n%s\nvs baseline:\n%s", workers, rendered, baseline)
		}
	}
}

func TestF1FleetDeterministicAcrossWorkers(t *testing.T) {
	tableAcrossWorkers(t, func(workers int) (Table, error) {
		return F1PCAControlLoop(F1Options{
			Seed: 42, Duration: 20 * sim.Minute, Trials: 4, Fleet: fleet.Runner{Workers: workers},
		})
	})
}

func TestE6FleetDeterministicAcrossWorkers(t *testing.T) {
	tableAcrossWorkers(t, func(workers int) (Table, error) {
		return E6CommFailure(E6Options{
			Seed: 7, Duration: sim.Hour, Losses: []float64{0, 0.2, 0.4}, Fleet: fleet.Runner{Workers: workers},
		})
	})
}

func TestE7FleetDeterministicAcrossWorkers(t *testing.T) {
	tableAcrossWorkers(t, func(workers int) (Table, error) {
		return E7AdaptiveThresholds(E7Options{
			Seed: 5, Athletes: 4, Average: 4, Duration: 4 * sim.Hour, Fleet: fleet.Runner{Workers: workers},
		})
	})
}

// With Trials > 1 the F1 table switches the distress column to an
// ensemble count and reports trial percentiles; the supervised ensemble
// must still dominate the unsupervised one.
func TestF1TrialEnsembleShape(t *testing.T) {
	tab, err := F1PCAControlLoop(F1Options{Seed: 42, Duration: sim.Hour, Trials: 3, Fleet: fleet.Runner{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	unsup, sup := tab.Rows[0], tab.Rows[1]
	if !strings.HasSuffix(unsup[4], "/3") || !strings.HasSuffix(sup[4], "/3") {
		t.Fatalf("distress cells not ensemble counts: %q %q", unsup[4], sup[4])
	}
	var unsupSpO2, supSpO2 float64
	if _, err := fmtSscan(unsup[1], &unsupSpO2); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(sup[1], &supSpO2); err != nil {
		t.Fatal(err)
	}
	if supSpO2 <= unsupSpO2 {
		t.Fatalf("supervised ensemble mean SpO2 %.1f not above unsupervised %.1f:\n%s",
			supSpO2, unsupSpO2, tab)
	}
	foundPercentiles := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "p5") {
			foundPercentiles = true
		}
	}
	if !foundPercentiles {
		t.Fatalf("ensemble percentile note missing:\n%s", tab)
	}
}
