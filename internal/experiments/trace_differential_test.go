package experiments

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// TestDifferentialTracing renders every catalog experiment once and pins
// the renders, concatenated, against testdata/tables.golden, so a change
// to any of the fourteen tables fails here. After an intended change,
// re-pin with go test ./internal/experiments -run TestDifferentialTracing -update.
//
// Each of those renders is also the proof that a table ignores every
// dimension it does not declare in its Dims: it runs with an Engine that
// fails the test, under an active span that must gain no child, and with
// fresh fleet histograms that must stay empty (no fleet cell ran, so
// Options.Fleet.Obs cannot reach the table). Tables that declare Trace or
// Fleet then render again traced, and must match byte for byte and show
// the spans and cell observations they declared: spans and metrics ride
// alongside the simulation, never inside it.
func TestDifferentialTracing(t *testing.T) {
	plain := Options{Seed: 1, Cells: 2, Fleet: fleet.Runner{Workers: 2}}

	var tables strings.Builder
	rendered := map[string]string{}
	for _, id := range IDs() {
		dims, o, p := Consumes(id), plain, newProbe(id)
		if !dims.Engine {
			o.Fleet.Engine = failEngine{t, id}
		}
		if !dims.Trace {
			o.Fleet.Span = p.root
		}
		if !dims.Fleet {
			o.Fleet.Obs = p.obs
		}
		tab, err := Run(id, o)
		p.root.End()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rendered[id] = tab.String()
		tables.WriteString(tab.String() + "\n")
		if spans := p.spans(id); !dims.Trace && len(spans) > 0 {
			t.Errorf("%s opened spans %v under its exp span without declaring Dims.Trace", id, spans)
		}
		if n := p.obs.CellSeconds.Count() + p.obs.QueueWaitSeconds.Count(); !dims.Fleet && n > 0 {
			t.Errorf("%s made %d fleet observations without declaring Dims.Fleet", id, n)
		}
	}
	checkTablesGolden(t, tables.String())

	for _, id := range IDs() {
		dims := Consumes(id)
		if !dims.Trace && !dims.Fleet {
			continue
		}
		o, p := plain, newProbe(id)
		o.Fleet.Span, o.Fleet.Obs = p.root, p.obs
		tab, err := Run(id, o)
		p.root.End()
		if err != nil {
			t.Fatalf("%s traced: %v", id, err)
		}
		if tab.String() != rendered[id] {
			t.Errorf("%s: tracing changed the table\ntraced:\n%s\nbare:\n%s", id, tab.String(), rendered[id])
		}
		if dims.Trace && len(p.spans(id)) == 0 {
			t.Errorf("%s declares Dims.Trace but opened no span under its exp span", id)
		}
		if dims.Fleet && p.obs.CellSeconds.Count() == 0 {
			t.Errorf("%s declares Dims.Fleet but observed no fleet cell", id)
		}
		if err := icescope.Lint(p.reg.Expose()); err != nil {
			t.Errorf("%s: histogram exposition fails lint: %v", id, err)
		}
	}
}

// probe is one render's instrumentation: a fresh trace under a "probe"
// root span and fresh fleet histograms.
type probe struct {
	tr   *icescope.Trace
	root icescope.Span
	reg  *icescope.Registry
	obs  *fleet.Obs
}

func newProbe(id string) probe {
	tr := icescope.NewTrace("probe " + id)
	reg := icescope.NewRegistry()
	return probe{tr: tr, root: tr.Start(icescope.Span{}, "probe"), reg: reg, obs: &fleet.Obs{
		CellSeconds:      reg.Histogram("test_cell_seconds", "Cell wall time.", nil),
		QueueWaitSeconds: reg.Histogram("test_queue_wait_seconds", "Cell queue wait.", nil),
	}}
}

// spans names the spans recorded beneath the render's "exp <id>" span:
// every span but the probe root and that span itself.
func (p probe) spans(id string) []string {
	var out []string
	for name := range p.tr.SelfTimes() {
		if name != "probe" && name != "exp "+id {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// failEngine is a fleet.Engine whose use fails the test.
type failEngine struct {
	t  *testing.T
	id string
}

func (e failEngine) RunRange(context.Context, string, fleet.Params, int, int, func(fleet.Result)) error {
	e.t.Errorf("%s shipped cells to Options.Fleet.Engine without declaring Dims.Engine", e.id)
	return errors.New("probe engine refuses cells")
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
