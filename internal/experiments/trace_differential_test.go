package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// TestDifferentialTracing renders every catalog experiment — the full
// set of icerun tables — once bare and once under an active icescope
// span with fleet histograms attached, and holds each table
// byte-identical. This is the observability layer's determinism gate:
// spans and metrics ride alongside the simulation, never inside it, so
// turning them on cannot perturb a single byte of output. Fleet-backed
// experiments run multi-worker so the per-worker span buffers and the
// latency histograms are actually exercised.
//
// The bare renders, concatenated, are also pinned against
// testdata/tables.golden, so a change to any of the fourteen tables
// fails here. After an intended change, re-pin with
// go test ./internal/experiments -run TestDifferentialTracing -update.
func TestDifferentialTracing(t *testing.T) {
	plain := Options{Seed: 1, Cells: 2, Workers: 2}

	reg := icescope.NewRegistry()
	obs := &fleet.Obs{
		CellSeconds:      reg.Histogram("test_cell_seconds", "Cell wall time.", nil),
		QueueWaitSeconds: reg.Histogram("test_queue_wait_seconds", "Cell queue wait.", nil),
	}
	tr := icescope.NewTrace("differential")
	root := tr.Start(icescope.Span{}, "icerun")
	traced := plain
	traced.Trace = root
	traced.Obs = obs

	var tables strings.Builder
	for _, id := range IDs() {
		bare, err := Run(id, plain)
		if err != nil {
			t.Fatalf("%s bare: %v", id, err)
		}
		tables.WriteString(bare.String() + "\n")
		instrumented, err := Run(id, traced)
		if err != nil {
			t.Fatalf("%s traced: %v", id, err)
		}
		if instrumented.String() != bare.String() {
			t.Errorf("%s: tracing changed the table\ntraced:\n%s\nbare:\n%s",
				id, instrumented.String(), bare.String())
		}
	}
	root.End()
	checkTablesGolden(t, tables.String())

	// The instrumentation must have actually observed something, or this
	// differential proved nothing.
	if tr.Coverage(root) <= 0 {
		t.Error("trace recorded no leaf spans — differential exercised nothing")
	}
	if obs.CellSeconds.Count() == 0 {
		t.Error("cell latency histogram never observed — differential exercised nothing")
	}
	if err := icescope.Lint(reg.Expose()); err != nil {
		t.Errorf("histogram exposition fails lint: %v", err)
	}
}

// checkTablesGolden compares the concatenated table renders with
// testdata/tables.golden, rewriting the file first under -update.
func checkTablesGolden(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got != string(want) {
		t.Errorf("tables drifted from %s (re-pin with -update only after an intended change)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
