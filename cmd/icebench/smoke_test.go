package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the local reference")

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric lists the repository's BENCHMARK.json
// declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// requireMetrics checks a run reports exactly the declared metrics, each
// with its declared unit.
func requireMetrics(t *testing.T, got map[string]metric, want []benchMetric) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, window: time.Second, trace: trace, setups: 1, workDir: t.TempDir()}
}

// Each workload for about a second at seed 1, which also checks every
// served table against the local reference and the golden digests.
func TestSmoke(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, err := run(smokeConfig(t, wl, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			requireMetrics(t, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeLayers(t *testing.T) {
	_, perLayer := benchmarkSpec(t)
	cfg := smokeConfig(t, wlPCALocal, true)
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("correct=false, failed=%d", res.Failed)
	}
	requireMetrics(t, res.Metrics, perLayer)
	if u := res.Metrics["cell.unattributed_share.pca"].Value; !raceEnabled && (u < 0 || u > 1) {
		t.Errorf("cell.unattributed_share.pca = %v, want within [0, 1]", u)
	}
	data, err := os.ReadFile(filepath.Join(cfg.workDir, "pca-local-seed1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("Chrome trace artifact unreadable or empty: %v", err)
	}
}

// The golden digests are checked by every seed-1 run (TestSmoke among
// them); -update rewrites them from the local reference.
func TestGoldenDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden.json")
	}
	golden := map[string][]string{}
	for _, wl := range workloadNames {
		_, tables, err := referenceTables(wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			golden[wl] = append(golden[wl], digest(tab))
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
