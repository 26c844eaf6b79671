package device

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/physio"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/oximeter.golden")

// Every datum one oximeter publishes over 30 sim-minutes — through a
// sedating bolus, motion artifact, a probe dropout and a probe bias —
// must match testdata/oximeter.golden bit for bit. The experiment tables
// see the oximeter only through reductions; this pins each published
// value, validity, quality and timestamp. Re-pin only after an intended
// change, with
// go test ./internal/device -run TestOximeterPublishesGolden -update.
func TestOximeterPublishesGolden(t *testing.T) {
	f := newFixture(t)
	patient := physio.DefaultPatient(f.rng.Fork("patient"))
	var b strings.Builder
	f.mgr.Subscribe("ox1/*", func(_ string, d core.Datum) {
		fmt.Fprintf(&b, "%d %s %d %016x %t %016x\n", f.k.Now(), d.Topic, d.Sampled,
			math.Float64bits(d.Value), d.Valid, math.Float64bits(d.Quality))
	})
	var ox *Oximeter
	f.k.At(0, func() {
		NewWard(f.k, patient, sim.Second)
		ox = MustNewOximeter(f.k, f.net, "ox1", patient, f.rng.Fork("ox"), core.ConnectConfig{})
		f.k.At(2*sim.Minute, func() { ox.InjectMotion(30*sim.Second, 6) })
		f.k.At(5*sim.Minute, func() { patient.Bolus(8) })
		f.k.At(8*sim.Minute, func() { ox.InjectDropout(20 * sim.Second) })
		f.k.At(14*sim.Minute, func() { ox.InjectBias(sim.Minute, 10) })
		f.k.At(20*sim.Minute, func() { ox.InjectMotion(sim.Minute, 2) })
	})
	if err := f.k.Run(30 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "estimates %d invalid %d\n", ox.Estimates, ox.InvalidEstimates)
	got := b.String()

	path := filepath.Join("testdata", "oximeter.golden")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("datum %d drifted from %s:\ngot  %s\nwant %s", i, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
	if ox.InvalidEstimates == 0 || ox.InvalidEstimates == ox.Estimates {
		t.Fatalf("windows not varied: %d of %d invalid", ox.InvalidEstimates, ox.Estimates)
	}
}

// One analysis window in steady state — synthesis into the oximeter's
// scratch, the estimate, both publishes and their delivery — must not
// allocate.
func TestAllocsOximeterWindow(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	f := newFixture(t)
	patient := physio.DefaultPatient(f.rng.Fork("patient"))
	delivered := 0
	f.mgr.Subscribe("ox1/*", func(string, core.Datum) { delivered++ })
	ox := MustNewOximeter(f.k, f.net, "ox1", patient, f.rng.Fork("ox"), core.ConnectConfig{})
	if err := f.k.Run(sim.Minute); err != nil { // admit, warm buffers and topic cache
		t.Fatal(err)
	}
	window := ox.est.ProcessingDelay()
	step := func() {
		ox.processWindow(f.k.Now(), window)
		if err := f.k.Run(f.k.Now() + 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	before := delivered
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("one oximeter window allocates %v, want 0", got)
	}
	if delivered-before < 2*200 {
		t.Fatalf("only %d publications delivered, want at least %d", delivered-before, 2*200)
	}
}
