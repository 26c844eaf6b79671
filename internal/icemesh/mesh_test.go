package icemesh

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// The kill test needs cells that provably straddle the node loss: a
// registered scenario whose cells all block on a per-ensemble gate, so
// the test can wedge both nodes mid-shard, kill one, and only then let
// the fleet drain.
var meshGates sync.Map // base seed -> chan struct{}

var killSeeds atomic.Int64 // unique gate seeds across -count=N reruns

func meshGate(seed int64) chan struct{} {
	ch, _ := meshGates.LoadOrStore(seed, make(chan struct{}))
	return ch.(chan struct{})
}

func init() {
	fleet.Register("mesh-gated", func(p fleet.Params) fleet.Spec {
		gate := meshGate(p.Seed)
		return fleet.Spec{
			Name:  "mesh-gated",
			Seed:  p.Seed,
			Cells: p.Cells,
			Run: func(c fleet.Cell) (fleet.Metrics, error) {
				<-gate
				return fleet.Metrics{"value": float64(c.Index)*10 + float64(p.Seed)}, nil
			},
		}
	})
}

// startMesh brings up a coordinator plus n in-process nodes on a random
// TCP port and waits for registration. Returned cancels kill individual
// nodes (the node-loss lever); cleanup tears everything down.
func startMesh(t *testing.T, cfg Config, n int, workers int) (*Coordinator, []context.CancelFunc) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord := NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(func() { ln.Close(); coord.Close() })

	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		t.Cleanup(cancel)
		node := NewNode(NodeConfig{
			Coordinator: ln.Addr().String(),
			Name:        fmt.Sprintf("worker-%c", 'a'+i),
			Workers:     workers,
			Logf:        t.Logf,
		})
		go func() {
			if err := node.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("node: %v", err)
			}
		}()
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := coord.WaitForNodes(waitCtx, n); err != nil {
		t.Fatal(err)
	}
	return coord, cancels
}

func summarize(results []fleet.Result) string {
	return fleet.Reduce(results).String()
}

// The load-bearing guarantee, one level up: a real scenario ensemble
// reduced from a 2-node mesh is byte-identical to the same ensemble run
// locally, at several shard granularities, and per-cell results match
// index for index.
func TestMeshRunMatchesLocalByteIdentical(t *testing.T) {
	for _, shardCells := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("shard=%d", shardCells), func(t *testing.T) {
			coord, _ := startMesh(t, Config{ShardCells: shardCells}, 2, 2)

			spec, err := fleet.Build(fleet.ScenarioXRayVentSync, fleet.Params{
				Seed: 42, Cells: 7, Knobs: map[string]float64{"requests": 6},
			})
			if err != nil {
				t.Fatal(err)
			}
			local, err := fleet.Runner{Workers: 4}.Run(spec)
			if err != nil {
				t.Fatal(err)
			}

			var streamed atomic.Int64
			mesh, err := fleet.Runner{Workers: 4, Engine: coord}.RunContext(
				context.Background(), spec, func(fleet.Result) { streamed.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			if got, want := summarize(mesh), summarize(local); got != want {
				t.Fatalf("mesh table differs from local:\n%s\nvs\n%s", got, want)
			}
			if int(streamed.Load()) != len(local) {
				t.Fatalf("streamed %d cells, want %d", streamed.Load(), len(local))
			}
			for i := range local {
				if mesh[i].Cell != local[i].Cell || mesh[i].Events != local[i].Events {
					t.Fatalf("cell %d differs: %+v vs %+v", i, mesh[i], local[i])
				}
			}
		})
	}
}

// Killing a node mid-job re-assigns its shards to the survivor and the
// reduced table is still byte-identical to a local run — the failure
// half of the determinism-across-nodes contract.
func TestMeshNodeKillMidJobStillByteIdentical(t *testing.T) {
	// A fresh seed per invocation keeps the gate unopened under -count=N
	// (gates are per-seed and stay closed only until their first test).
	seed := 9000 + killSeeds.Add(1)
	const cells = 8
	coord, cancels := startMesh(t, Config{ShardCells: 1, Heartbeat: 50 * time.Millisecond}, 2, 1)

	spec, err := fleet.Build("mesh-gated", fleet.Params{Seed: seed, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}

	type meshOut struct {
		res []fleet.Result
		err error
	}
	done := make(chan meshOut, 1)
	go func() {
		res, err := fleet.Runner{Workers: 4, Engine: coord}.RunContext(context.Background(), spec, nil)
		done <- meshOut{res, err}
	}()

	// Wait until both nodes hold work — every cell is its own shard and
	// all cells are gated, so both nodes are provably mid-shard here.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		busy := 0
		for _, n := range coord.nodes {
			if len(n.inflight) > 0 {
				busy++
			}
		}
		coord.mu.Unlock()
		if busy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("nodes never picked up shards")
		}
		time.Sleep(time.Millisecond)
	}

	cancels[0]() // kill worker-a: its conn drops, its shards must re-assign
	deadline = time.Now().Add(10 * time.Second)
	for coord.NodeCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("killed node never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	close(meshGate(seed)) // open the floodgates; the survivor drains everything

	out := <-done
	if out.err != nil {
		t.Fatalf("mesh run after node kill: %v", out.err)
	}
	if coord.met.shardRetries.Value() == 0 {
		t.Fatal("no shard was re-assigned, the kill tested nothing")
	}

	local, err := fleet.Runner{Workers: 4}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summarize(out.res), summarize(local); got != want {
		t.Fatalf("post-kill mesh table differs from local:\n%s\nvs\n%s", got, want)
	}
}

// A shard that blows the coordinator's deadline on a live-but-wedged
// node is re-assigned — and the result still matches a local run even
// when the wedged node eventually finishes too (first delivery wins,
// both copies identical by determinism).
func TestShardDeadlineReassignsFromWedgedNode(t *testing.T) {
	seed := 9000 + killSeeds.Add(1)
	coord, _ := startMesh(t, Config{
		ShardCells:    1,
		ShardDeadline: 30 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
	}, 2, 1)

	spec, err := fleet.Build("mesh-gated", fleet.Params{Seed: seed, Cells: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []fleet.Result, 1)
	go func() {
		res, err := fleet.Runner{Engine: coord}.RunContext(context.Background(), spec, nil)
		if err != nil {
			t.Errorf("mesh run: %v", err)
		}
		done <- res
	}()

	// The one shard is gated on whichever node got it; wait for the
	// deadline to bounce it to the other node.
	deadline := time.Now().Add(10 * time.Second)
	for coord.met.shardRetries.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard deadline never fired")
		}
		time.Sleep(time.Millisecond)
	}
	close(meshGate(seed)) // both assignees finish; exactly one delivery counts

	res := <-done
	local, err := fleet.Runner{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summarize(res), summarize(local); got != want {
		t.Fatalf("post-deadline mesh table differs:\n%s\nvs\n%s", got, want)
	}
}

// A mesh with no workers rejects jobs instead of hanging, and a spec
// without Build provenance falls back to local execution even when an
// engine is installed.
func TestMeshNoNodesAndLocalFallback(t *testing.T) {
	coord := NewCoordinator(Config{Logf: t.Logf})
	t.Cleanup(coord.Close)

	spec, err := fleet.Build(fleet.ScenarioXRayVentSync, fleet.Params{
		Seed: 1, Cells: 2, Knobs: map[string]float64{"requests": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleet.Runner{Engine: coord}.RunContext(context.Background(), spec, nil)
	if err == nil || !strings.Contains(err.Error(), "no live worker nodes") {
		t.Fatalf("no-nodes run err = %v, want ErrNoNodes", err)
	}

	// Hand-built specs carry no provenance; the engine must be bypassed.
	handBuilt := fleet.Spec{
		Name: "hand-built", Seed: 5, Cells: 3,
		Run: func(c fleet.Cell) (fleet.Metrics, error) {
			return fleet.Metrics{"seed": float64(c.Seed)}, nil
		},
	}
	res, err := fleet.Runner{Engine: coord}.RunContext(context.Background(), handBuilt, nil)
	if err != nil {
		t.Fatalf("local fallback: %v", err)
	}
	if len(res) != 3 || res[0].Metrics["seed"] != float64(sim.SubSeed(5, "hand-built", 0)) {
		t.Fatalf("local fallback results wrong: %+v", res)
	}
}

// Close fails every job in flight, including one whose shards all wait
// on the queue: no node can join a closed coordinator to run them.
func TestCoordinatorCloseFailsQueuedJobs(t *testing.T) {
	seed := 9000 + killSeeds.Add(1)
	coord, cancels := startMesh(t, Config{ShardCells: 1, Window: 1}, 1, 1)
	// The node's gated cell outlives Close; cancel the node before the
	// gate opens, so its Run ends without an error.
	t.Cleanup(func() { cancels[0](); close(meshGate(seed)) })

	// submit starts a job of cells gated cells and waits until the queue
	// holds queued shards.
	submit := func(cells, queued int) <-chan error {
		done := make(chan error, 1)
		go func() {
			done <- coord.RunRange(context.Background(), "mesh-gated", fleet.Params{Seed: seed, Cells: cells}, 0, cells, func(fleet.Result) {})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			coord.mu.Lock()
			n := len(coord.pending)
			coord.mu.Unlock()
			if n == queued {
				return done
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue holds %d shards, want %d", n, queued)
			}
			time.Sleep(time.Millisecond)
		}
	}
	a := submit(2, 1) // one shard on the node (window 1), one queued
	b := submit(1, 2) // its only shard queued behind A's
	coord.Close()
	for _, job := range []struct {
		name string
		done <-chan error
	}{{"A", a}, {"B", b}} {
		select {
		case err := <-job.done:
			if !errors.Is(err, ErrNoNodes) {
				t.Errorf("job %s after Close = %v, want ErrNoNodes", job.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("job %s still blocked 5s after Close", job.name)
		}
	}
}

// The icenode daemon's SIGTERM sequence: Drain returns once idle, and a
// drained node's Run exits nil on cancellation — the "exit 0" property.
func TestNodeDrainExitsClean(t *testing.T) {
	coord := NewCoordinator(Config{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(func() { ln.Close(); coord.Close() })

	node := NewNode(NodeConfig{Coordinator: ln.Addr().String(), Workers: 2, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := coord.WaitForNodes(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	spec, err := fleet.Build(fleet.ScenarioXRayVentSync, fleet.Params{
		Seed: 2, Cells: 2, Knobs: map[string]float64{"requests": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (fleet.Runner{Workers: 2, Engine: coord}).RunContext(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}

	if err := node.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("drained node Run = %v, want nil (exit 0)", err)
	}

	// A drained mesh has no assignable workers left.
	if _, err := (fleet.Runner{Workers: 2, Engine: coord}).RunContext(context.Background(), spec, nil); err == nil {
		t.Fatal("job ran on a fully drained mesh")
	}
}

// A node whose coordinator connection drops must return from Run (so
// the daemon's loop can re-dial) — the heartbeat goroutine must not
// keep Run wedged on a dead socket.
func TestNodeRunReturnsWhenCoordinatorDrops(t *testing.T) {
	coord := NewCoordinator(Config{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(func() { ln.Close(); coord.Close() })

	node := NewNode(NodeConfig{Coordinator: ln.Addr().String(), Workers: 1, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := coord.WaitForNodes(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	coord.mu.Lock()
	for _, n := range coord.nodes {
		n.conn.Close() // the coordinator side drops the connection
	}
	coord.mu.Unlock()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil for a non-drained connection drop")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run wedged after the coordinator dropped the connection")
	}
}

// Node drain: a draining node finishes in-flight work, receives nothing
// new, and jobs submitted afterwards run entirely on the remaining node.
func TestMeshNodeDrainHandshake(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 2}, 2, 1)

	spec, err := fleet.Build(fleet.ScenarioXRayVentSync, fleet.Params{
		Seed: 3, Cells: 4, Knobs: map[string]float64{"requests": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := fleet.Runner{Workers: 2, Engine: coord}
	if _, err := runner.RunContext(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}

	// Drain one node directly through the coordinator's registry (the
	// node-side Drain API is exercised by the icenode daemon test).
	coord.mu.Lock()
	var names []string
	for name := range coord.nodes {
		names = append(names, name)
	}
	var drained string
	for _, name := range names {
		if drained == "" || name < drained {
			drained = name
		}
	}
	coord.nodes[drained].draining = true
	c0 := coord.nodes[drained].cellsDone
	coord.mu.Unlock()

	if _, err := runner.RunContext(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	after := coord.nodes[drained].cellsDone
	coord.mu.Unlock()
	if after != c0 {
		t.Fatalf("draining node executed %d new cells", after-c0)
	}
}

// A node built with NewNodeObs observes every cell it runs in both fleet
// histograms it serves on /metrics: the cell's execution latency and its
// wait between dispatch and a worker picking it up.
func TestNodeObsCountsEveryCell(t *testing.T) {
	const cells = 6
	coord := NewCoordinator(Config{ShardCells: 2, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(func() { ln.Close(); coord.Close() })
	obs := NewNodeObs(icescope.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	node := NewNode(NodeConfig{Coordinator: ln.Addr().String(), Workers: 2, Obs: obs, Logf: t.Logf})
	go func() {
		if err := node.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("node: %v", err)
		}
	}()
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := coord.WaitForNodes(waitCtx, 1); err != nil {
		t.Fatal(err)
	}

	spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{Seed: 5, Cells: cells, Duration: 5 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (fleet.Runner{Workers: 2, Engine: coord}).Run(spec); err != nil {
		t.Fatal(err)
	}
	// The node counts a shard's cells after it has sent the shard's
	// frames, so the job can finish at the coordinator first.
	deadline := time.Now().Add(10 * time.Second)
	for obs.CellsDone.Value() < cells && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ran := obs.CellsDone.Value()
	if ran != cells {
		t.Fatalf("node ran %d cells, want %d", ran, cells)
	}
	for name, h := range map[string]*icescope.Histogram{
		"icenode_cell_seconds":            obs.Fleet.CellSeconds,
		"icenode_cell_queue_wait_seconds": obs.Fleet.QueueWaitSeconds,
	} {
		if got := h.Count(); got != ran {
			t.Errorf("%s count = %d, want %d: one per cell the node ran", name, got, ran)
		}
	}
}

// A node sends each shard back from one goroutine once its range ends:
// the shard's cells in index order and in full CellBatch frames, then
// its spans when traced, then its ShardDone. A stand-in coordinator
// assigns a traced and an untraced 40-cell shard to a two-worker node,
// whose cells finish out of index order, and reads the frames.
func TestNodeSendsShardInOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	node := NewNode(NodeConfig{Coordinator: ln.Addr().String(), Workers: 2, Logf: t.Logf})
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(conn)
	if m, err := ReadMessage(br); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*Hello); !ok {
		t.Fatalf("node opened with %T, want *Hello", m)
	}
	var wbuf []byte
	send := func(m any) {
		t.Helper()
		if wbuf, err = WriteMessage(conn, wbuf, m); err != nil {
			t.Fatal(err)
		}
	}
	send(&Welcome{Node: "solo", HeartbeatMS: 1000})

	const cells = 40
	for _, sh := range []struct {
		id     uint64
		traced bool
	}{{7, true}, {8, false}} {
		send(&Assign{
			Shard: sh.id, Scenario: fleet.ScenarioPCASupervised, Seed: 3,
			Cells: cells, Start: 0, End: cells, Duration: 2 * sim.Minute, Trace: sh.traced,
		})
		next, cellFrames, spans := 0, 0, map[string]int{}
	frames:
		for {
			m, err := ReadMessage(br)
			if err != nil {
				t.Fatalf("shard %d: %v", sh.id, err)
			}
			switch v := m.(type) {
			case *Heartbeat:
			case *CellBatch:
				cellFrames++
				if len(spans) > 0 {
					t.Fatalf("shard %d: CellBatch after spans", sh.id)
				}
				for _, cd := range v.Cells {
					if cd.Shard != sh.id || cd.Index != next || cd.Err != "" {
						t.Fatalf("shard %d: got cell %d of shard %d (err %q), want cell %d", sh.id, cd.Index, cd.Shard, cd.Err, next)
					}
					next++
				}
			case *SpanBatch:
				if v.Shard != sh.id {
					t.Fatalf("shard %d: SpanBatch names shard %d", sh.id, v.Shard)
				}
				for _, rec := range v.Spans {
					spans[rec.Name]++
				}
			case *ShardDone:
				if v.Shard != sh.id || v.Err != "" {
					t.Fatalf("shard %d: ShardDone %+v", sh.id, v)
				}
				break frames
			default:
				t.Fatalf("shard %d: unexpected %T", sh.id, m)
			}
		}
		if next != cells || cellFrames != 2 { // 32 + 8
			t.Errorf("shard %d: %d cells in %d CellBatch frames, want %d in 2", sh.id, next, cellFrames, cells)
		}
		want := map[string]int{}
		if sh.traced {
			want = map[string]int{fmt.Sprintf("shard %d [0,%d)", sh.id, cells): 1, "cell run": cells}
		}
		if fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Errorf("shard %d: sent spans %v, want %v", sh.id, spans, want)
		}
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Errorf("node Run after cancel = %v, want nil", err)
	}
}

// cellGauge tracks how many cells run at once and the most it ever saw.
type cellGauge struct{ now, peak atomic.Int64 }

func (g *cellGauge) enter() {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

// gaugedJobs is one node-concurrency run: a gauge per job (by seed), one
// for the node's total, and a channel closed once four cells overlap.
type gaugedJobs struct {
	mu    sync.Mutex
	jobs  map[int64]*cellGauge
	total cellGauge
	full  chan struct{}
	once  sync.Once
}

var gaugedRuns sync.Map // "run" knob -> *gaugedJobs

var gaugedRunIDs atomic.Int64 // unique runs across -count=N reruns

func gaugedRun(id float64) *gaugedJobs {
	r, _ := gaugedRuns.LoadOrStore(id, &gaugedJobs{jobs: map[int64]*cellGauge{}, full: make(chan struct{})})
	return r.(*gaugedJobs)
}

func (r *gaugedJobs) job(seed int64) *cellGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs[seed] == nil {
		r.jobs[seed] = &cellGauge{}
	}
	return r.jobs[seed]
}

// Cells of "mesh-gauged" hold on until four of them overlap on the node
// (or 200 ms pass), so a node that runs fewer cells at once than its
// per-job pools allow shows it in the total's peak.
func init() {
	fleet.Register("mesh-gauged", func(p fleet.Params) fleet.Spec {
		r := gaugedRun(p.Knobs["run"])
		job := r.job(p.Seed)
		return fleet.Spec{
			Name:  "mesh-gauged",
			Seed:  p.Seed,
			Cells: p.Cells,
			Run: func(c fleet.Cell) (fleet.Metrics, error) {
				job.enter()
				r.total.enter()
				if r.total.now.Load() >= 4 {
					r.once.Do(func() { close(r.full) })
				}
				select {
				case <-r.full:
				case <-time.After(200 * time.Millisecond):
				}
				r.total.now.Add(-1)
				job.now.Add(-1)
				return fleet.Metrics{"index": float64(c.Index)}, nil
			},
		}
	})
}

// A node keeps one pool of Workers slots per job: shards of two jobs in
// flight at once never run more than Workers cells of either job, and
// the two jobs together run more than Workers. icu-mesh's probe cells
// depend on that per-job width.
func TestNodeBoundsEachJobToWorkers(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 1, Window: 8}, 1, 2)
	id := float64(gaugedRunIDs.Add(1))
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		spec, err := fleet.Build("mesh-gauged", fleet.Params{Seed: seed, Cells: 4, Knobs: map[string]float64{"run": id}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := (fleet.Runner{Engine: coord}).Run(spec); err != nil {
				t.Errorf("job seed %d: %v", seed, err)
			}
		}()
	}
	wg.Wait()
	r := gaugedRun(id)
	for seed, g := range r.jobs {
		if peak := g.peak.Load(); peak > 2 {
			t.Errorf("job seed %d ran %d cells at once on a Workers: 2 node, want at most 2", seed, peak)
		}
	}
	if peak := r.total.peak.Load(); peak <= 2 {
		t.Errorf("the node ran at most %d cells of two concurrent jobs at once, want more than 2", peak)
	}
}
