package icemesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// TestMeshTraceCoverage is the attribution acceptance gate: a traced
// 8-cell job on a 2-node mesh must attribute at least 90% of its wall
// time to named leaf spans (plan + per-shard round trips), so the trace
// can actually explain where the scaling headroom goes instead of
// leaving it in anonymous gaps. The rendered tree is logged — DESIGN.md
// quotes a run of this shape.
func TestMeshTraceCoverage(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 2}, 2, 2)

	spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{
		Seed: 42, Cells: 8, Duration: 30 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := icescope.NewTrace("mesh-job")
	root := tr.Start(icescope.Span{}, "job mesh-bench")
	runner := fleet.Runner{Workers: 2, Engine: coord, Span: root}
	if _, err := runner.Run(spec); err != nil {
		t.Fatal(err)
	}
	root.End()

	cov := tr.Coverage(root)
	t.Logf("trace coverage: %.3f\n%s", cov, tr.TextString())
	if cov < 0.9 {
		t.Fatalf("trace attributes only %.1f%% of wall time to leaf spans, want >= 90%%\n%s",
			cov*100, tr.TextString())
	}
	text := tr.TextString()
	for _, want := range []string{"engine " + fleet.ScenarioPCASupervised, "plan", "shard 1 [0,2)"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace tree missing span %q:\n%s", want, text)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("trace dropped %d spans under the default cap", tr.Dropped())
	}
}

// Tracing is observability, not identity: the same mesh job with and
// without a span root — which also turns on node span forwarding —
// reduces to byte-identical tables.
func TestMeshTraceDifferential(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 3}, 2, 2)

	spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{
		Seed: 7, Cells: 5, Duration: 30 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fleet.Runner{Workers: 2, Engine: coord}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := icescope.NewTrace("diff")
	root := tr.Start(icescope.Span{}, "job")
	traced, err := fleet.Runner{Workers: 2, Engine: coord, Span: root}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	evs, _, _ := tr.EventsFrom(0)
	events := len(evs)
	if events == 0 {
		t.Error("traced job logged no events")
	}
	if got, want := summarize(traced), summarize(plain); got != want {
		t.Fatalf("tracing changed the mesh table:\n%s\nvs\n%s", got, want)
	}
}

// TestMeshForwardsNodeSpans pins the forwarding contract end to end: a
// traced job on a 2-node mesh ends up with every node's shard and cell
// spans in the job trace, each inside its parent's window, and a reader
// of the trace's log sees node-originated span events before the job's
// root closes, which is what the events endpoint streams mid-job.
func TestMeshForwardsNodeSpans(t *testing.T) {
	coord, _ := startMesh(t, Config{ShardCells: 2}, 2, 2)

	spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{
		Seed: 11, Cells: 8, Duration: 30 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := icescope.NewTrace("mesh-fwd")
	root := tr.Start(icescope.Span{}, "job")
	if _, err := (fleet.Runner{Workers: 2, Engine: coord, Span: root}).Run(spec); err != nil {
		t.Fatal(err)
	}
	// Read before root.End(): anything seen now arrived mid-job.
	events, _, _ := tr.EventsFrom(0)
	preTerminal := 0
	for _, ev := range events {
		if ev.Name == "cell run" {
			preTerminal++
		}
	}
	root.End()
	tr.Close()
	rest, _, _ := tr.EventsFrom(len(events))
	events = append(events, rest...)
	if preTerminal == 0 {
		t.Error("no node-originated span events reached the live stream before the job closed")
	}
	t.Logf("forwarded trace:\n%s", tr.TextString())

	done := map[icescope.SpanID]icescope.SpanEvent{} // completed spans
	for _, ev := range events {
		if ev.Kind != icescope.EventStart {
			done[ev.Span] = ev
		}
	}
	cells := 0
	nodeShards := map[string]bool{}    // "shard N [lo,hi)", forwarded
	coordShards := map[string]string{} // "shard N [lo,hi)" -> node it ran on
	for _, sp := range done {
		if p, ok := done[sp.Parent]; sp.Parent != 0 && (!ok || sp.Start < p.Start || sp.End > p.End) {
			t.Errorf("span %q [%v,%v] lies outside its parent %q [%v,%v]", sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
		switch f := strings.Fields(sp.Name); {
		case sp.Name == "cell run":
			cells++
		case len(f) == 3 && f[0] == "shard":
			nodeShards[sp.Name] = true
		case len(f) == 4 && f[0] == "shard":
			coordShards[strings.Join(f[:3], " ")] = f[3]
		}
	}
	if cells != spec.Cells {
		t.Errorf("job trace holds %d forwarded cell spans, want %d", cells, spec.Cells)
	}
	// Work on 8 cells at shard grain 2 across a 2-node window always lands
	// on both nodes, and each shard's spans reach the job trace.
	nodes := map[string]bool{}
	for shard, node := range coordShards {
		nodes[node] = true
		if !nodeShards[shard] {
			t.Errorf("coordinator span %q on %s has no forwarded node-side span", shard, node)
		}
	}
	if len(nodes) != 2 {
		t.Errorf("shards ran on %d nodes, want 2", len(nodes))
	}
	if coord.met.spanBatches.Value() == 0 {
		t.Error("icemesh_span_batches_total = 0 after a traced mesh job")
	}
	if coord.met.spansForwarded.Value() == 0 {
		t.Error("icemesh_spans_forwarded_total = 0 after a traced mesh job")
	}
}

// A traced mesh job cancelled mid-run ends every shard span it started:
// releasing the job's shards ends their coordinator spans with
// outcome=released, so the trace holds no span left open.
func TestCancelledTracedMeshJobEndsShardSpans(t *testing.T) {
	seed := 9000 + killSeeds.Add(1)
	coord, _ := startMesh(t, Config{ShardCells: 2}, 2, 1)
	t.Cleanup(func() { close(meshGate(seed)) }) // runs before the nodes stop

	spec, err := fleet.Build("mesh-gated", fleet.Params{Seed: seed, Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := icescope.NewTrace("cancelled")
	root := tr.Start(icescope.Span{}, "job")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := (fleet.Runner{Workers: 2, Engine: coord, Span: root}).RunContext(ctx, spec, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled job = %v, want its deadline", err)
	}
	root.End()

	events, _, _ := tr.EventsFrom(0)
	open := map[icescope.SpanID]string{}
	starts := 0
	for _, ev := range events {
		if !strings.HasPrefix(ev.Name, "shard ") {
			continue
		}
		switch ev.Kind {
		case icescope.EventStart:
			starts++
			open[ev.Span] = ev.Name
		case icescope.EventEnd:
			delete(open, ev.Span)
			if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "outcome" || ev.Attrs[0].Str != "released" {
				t.Errorf("span %q ended with %v, want outcome=released", ev.Name, ev.Attrs)
			}
		}
	}
	if starts == 0 || len(open) > 0 {
		t.Fatalf("%d shard starts, %d left open: %v\n%s", starts, len(open), open, tr.TextString())
	}
	t.Logf("cancelled trace:\n%s", tr.TextString())
}

// Node loss must leave the coordinator's metrics both well-formed and
// arithmetically right: one eviction, at least one shard retry, and —
// because delivery is deduplicated by job.seen — exactly one count per
// cell even though some cells were assigned twice.
func TestNodeLossMetricsStayCorrect(t *testing.T) {
	seed := 9000 + killSeeds.Add(1)
	const cells = 6
	coord, cancels := startMesh(t, Config{ShardCells: 1, Heartbeat: 50 * time.Millisecond}, 2, 1)

	spec, err := fleet.Build("mesh-gated", fleet.Params{Seed: seed, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := fleet.Runner{Workers: 4, Engine: coord}.RunContext(context.Background(), spec, nil)
		done <- err
	}()

	// Wait until both nodes hold gated work, then kill one.
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
	cancels[0]()
	deadline = time.Now().Add(10 * time.Second)
	for coord.NodeCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("killed node never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	close(meshGate(seed))
	if err := <-done; err != nil {
		t.Fatalf("mesh run after node kill: %v", err)
	}

	if got := coord.met.nodesLost.Value(); got != 1 {
		t.Errorf("nodes_lost_total = %d, want 1", got)
	}
	if coord.met.shardRetries.Value() == 0 {
		t.Error("shard_retries_total = 0 after a mid-job node kill")
	}
	if got := coord.met.cellsDone.Value(); got != cells {
		t.Errorf("cells_done_total = %d, want %d (re-assigned cells double-counted?)", got, cells)
	}

	text := coord.MetricsText()
	if err := icescope.Lint(text); err != nil {
		t.Errorf("post-loss exposition fails lint: %v", err)
	}
	for _, want := range []string{
		"icemesh_nodes_lost_total 1\n",
		"icemesh_nodes_live 1\n",
		"# TYPE icemesh_shard_retries_total counter\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The dead node's per-node gauges must be gone; the survivor's stay.
	if strings.Contains(text, `node="worker-a"`) {
		t.Errorf("evicted node still has per-node gauges:\n%s", text)
	}
	if !strings.Contains(text, `icemesh_node_cells_total{node="worker-b"} `+
		"6\n") {
		t.Errorf("survivor's cell gauge wrong:\n%s", text)
	}
}

// A scrape that races a node loss must not re-create the lost node's
// per-node series after nodeLost deleted them: nothing would delete
// them again. Thousands of registered nodes are lost one by one while
// another goroutine scrapes in a loop.
func TestNodeLossLeavesNoGhostGauges(t *testing.T) {
	coord := NewCoordinator(Config{})
	t.Cleanup(coord.Close)
	const nodes = 3000
	lost := make([]*meshNode, nodes)
	coord.mu.Lock()
	for i := range lost {
		conn, peer := net.Pipe()
		peer.Close()
		n := &meshNode{
			name: fmt.Sprintf("ghost-%d", i), capacity: 1, conn: conn,
			inflight: map[uint64]*meshShard{}, joined: time.Now(),
		}
		coord.nodes[n.name] = n
		lost[i] = n
	}
	coord.mu.Unlock()

	scraped := make(chan struct{}) // closed after the first scrape
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			coord.MetricsText()
			if i == 0 {
				close(scraped)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-scraped
	for _, n := range lost {
		coord.nodeLost(n, errors.New("gone"))
	}
	close(stop)
	<-done

	ghosts := 0
	for _, line := range strings.Split(coord.MetricsText(), "\n") {
		if strings.Contains(line, `node="ghost-`) {
			ghosts++
		}
	}
	if ghosts > 0 {
		t.Errorf("%d per-node series of lost nodes remain on /metrics", ghosts)
	}
}
