package experiments

import (
	"testing"

	"repro/internal/fleet"
)

// TestDifferentialPrototypeCloning renders every table that declares
// Dims.Fleet with prototype cloning globally disabled and again with it
// enabled, and holds each table byte-identical: the Reset-replay rigs
// must be indistinguishable from from-scratch construction at the level
// users actually consume, the rendered tables. Cloning acts only inside
// fleet.Runner, and TestDifferentialTracing proves that no other table
// runs a fleet cell. The pool runs multi-worker so the per-worker
// prototype caches are exercised, not just a single rig.
func TestDifferentialPrototypeCloning(t *testing.T) {
	defer fleet.SetPrototypesForTest(true)
	opt := Options{Seed: 1, Cells: 2, Workers: 2}
	for _, id := range IDs() {
		if !Consumes(id).Fleet {
			continue
		}
		fleet.SetPrototypesForTest(false)
		scratch, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s from-scratch: %v", id, err)
		}
		fleet.SetPrototypesForTest(true)
		cloned, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s cloned: %v", id, err)
		}
		if cloned.String() != scratch.String() {
			t.Errorf("%s: prototype cloning changed the table\ncloned:\n%s\nfrom-scratch:\n%s",
				id, cloned.String(), scratch.String())
		}
	}
}
