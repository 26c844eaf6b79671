package icemesh

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icegate"
	"repro/internal/icescope"
)

// The acceptance criterion for the distribution layer: every icerun
// table renders byte-identical whether its fleet cells run locally or
// across a 2-node mesh. Only the tables that declare Dims.Engine can
// ship a cell to the mesh; each of those renders locally, on the mesh,
// and on the mesh with a trace attached (which turns on node span
// forwarding), and its own subtest must move the coordinator's
// cells-done counter. Every other table renders once with
// the mesh installed: it must put no cell on the mesh and match its line
// in the experiments package's tables.golden. A wrong declaration fails
// here whichever way it is wrong, and the test fails if no table
// declares Dims.Engine, since then nothing would reach the mesh.
func TestAllTablesByteIdenticalLocalVsMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("full 14-table differential; skipped in -short")
	}
	engine := false
	for _, id := range experiments.IDs() {
		engine = engine || experiments.Consumes(id).Engine
	}
	if !engine {
		t.Fatal("no table declares Dims.Engine, so no table reaches the mesh")
	}
	coord, _ := startMesh(t, Config{}, 2, 2)
	golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			before := coord.met.cellsDone.Value()
			if !experiments.Consumes(id).Engine {
				mesh, err := experiments.Run(id, experiments.Options{Cells: 2, Fleet: fleet.Runner{Workers: 2, Engine: coord}})
				if err != nil {
					t.Fatalf("mesh: %v", err)
				}
				if n := coord.met.cellsDone.Value() - before; n > 0 {
					t.Fatalf("table %s put %d cells on the mesh without declaring Dims.Engine", id, n)
				}
				if !strings.Contains(string(golden), mesh.String()) {
					t.Fatalf("table %s with a mesh installed differs from tables.golden:\n%s", id, mesh.String())
				}
				return
			}
			local, err := experiments.Run(id, experiments.Options{Fleet: fleet.Runner{Workers: 2}})
			if err != nil {
				t.Fatalf("local: %v", err)
			}
			mesh, err := experiments.Run(id, experiments.Options{Fleet: fleet.Runner{Workers: 2, Engine: coord}})
			if err != nil {
				t.Fatalf("mesh: %v", err)
			}
			if local.String() != mesh.String() {
				t.Fatalf("table %s differs across backends:\n--- local ---\n%s\n--- mesh ---\n%s",
					id, local.String(), mesh.String())
			}
			tr := icescope.NewTrace("table " + id)
			root := tr.Start(icescope.Span{}, "table "+id)
			traced, err := experiments.Run(id, experiments.Options{Fleet: fleet.Runner{Workers: 2, Engine: coord, Span: root}})
			root.End()
			if err != nil {
				t.Fatalf("mesh+trace: %v", err)
			}
			if local.String() != traced.String() {
				t.Fatalf("table %s differs with a trace attached:\n--- local ---\n%s\n--- traced mesh ---\n%s",
					id, local.String(), traced.String())
			}
			if coord.met.cellsDone.Value() == before {
				t.Fatalf("table %s declares Dims.Engine but put no cell on the mesh", id)
			}
		})
	}
}

// The serving layer on a mesh backend: a scenario job's rendered table
// is byte-identical to the local backend's, the per-cell stream carries
// every cell, and /metrics reports the backend plus the mesh gauges.
func TestGatewayMeshBackendByteIdenticalToLocal(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 2}, 2, 2)

	localSched := icegate.NewScheduler(icegate.Config{QueueDepth: 4, Executors: 1, Workers: 4})
	t.Cleanup(localSched.Close)
	meshSched := icegate.NewScheduler(icegate.Config{QueueDepth: 4, Executors: 1, Workers: 4, Backend: coord})
	t.Cleanup(meshSched.Close)

	req := icegate.Request{Scenario: fleet.ScenarioXRayVentSync, Seed: 11, Cells: 5,
		Knobs: map[string]float64{"requests": 4}}
	run := func(s *icegate.Scheduler) string {
		t.Helper()
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		table, ok := job.Table()
		if !ok {
			t.Fatalf("job ended %v: %+v", job.Status(), job.View())
		}
		if v := job.View(); v.CellsDone != req.Cells {
			t.Fatalf("streamed %d cells, want %d", v.CellsDone, req.Cells)
		}
		return table
	}

	localTable := run(localSched)
	meshTable := run(meshSched)
	if localTable != meshTable {
		t.Fatalf("gateway tables differ across backends:\n--- local ---\n%s\n--- mesh ---\n%s",
			localTable, meshTable)
	}

	m := meshSched.MetricsText()
	for _, want := range []string{
		`icegate_backend{name="mesh"} 1`,
		"icemesh_nodes_live 2",
		"icemesh_cells_done_total",
		`icemesh_node_cells_per_second{node="worker-a"}`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("mesh-backed /metrics missing %q:\n%s", want, m)
		}
	}
}
