package icemesh

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// Config sizes the coordinator.
type Config struct {
	Heartbeat     time.Duration // node beat interval advertised in Welcome; <=0 means 1s
	ShardCells    int           // cells per shard; <=0 means 2 (fine-grained streaming)
	Window        int           // max in-flight shards per node; <=0 sizes from capacity (see windowLocked)
	ShardDeadline time.Duration // re-queue a shard not finished by then; <=0 means never
	Logf          func(format string, args ...any)
}

const (
	missedBeats = 4 // heartbeats a node may miss before it is presumed dead
	maxRetries  = 3 // re-assignments per shard before the job fails
)

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.ShardCells <= 0 {
		c.ShardCells = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrNoNodes rejects work when the mesh has no live, non-draining
// workers to run it on.
var ErrNoNodes = errors.New("icemesh: no live worker nodes")

// errClosed fails work submitted to, or still in flight on, a closed
// coordinator.
var errClosed = errors.New("icemesh: coordinator closed")

// Coordinator owns the node registry and the shard queue: it accepts
// node registrations over the mesh wire protocol, splits each job's
// cell range into fine-grained contiguous shards, and streams them to
// nodes pull-style — every node holds at most a small credit window of
// in-flight shards, and each ShardDone (or node join) pulls the next
// shard off the global FIFO, so fast nodes automatically steal the tail
// and a slow cell can never serialize a backlog behind it. Shards lost
// to node death or deadline are re-queued at the front; delivered cells
// merge back by global index, deduplicated first-wins.
//
// Coordinator implements fleet.Engine, and (structurally) icegate's
// Backend — plugging the cluster in wherever a local worker pool was.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	nodes    map[string]*meshNode
	shards   map[uint64]*meshShard
	pending  []*meshShard // global FIFO of shards awaiting a node with credit
	shardSeq uint64
	nameSeq  int

	met meshMetrics
}

// meshMetrics is the coordinator's icescope registry plus the handles
// its serving paths update. Per-node gauges are labeled vectors synced
// from the node registry by an OnCollect hook at scrape time; a lost
// node's children are deleted so /metrics never reports ghosts.
type meshMetrics struct {
	reg *icescope.Registry

	nodesJoined    *icescope.Counter
	nodesLost      *icescope.Counter
	shardsAssigned *icescope.Counter
	shardRetries   *icescope.Counter
	cellsDone      *icescope.Counter
	cellBatches    *icescope.Counter
	jobs           *icescope.Counter
	jobsFailed     *icescope.Counter

	// Span forwarding: frames received, spans injected into job traces,
	// and frames dropped because their shard no longer belonged to a live
	// traced job (the shard retired or the job finished — benign).
	spanBatches      *icescope.Counter
	spansForwarded   *icescope.Counter
	spanBatchesStale *icescope.Counter

	// heartbeatJitter observes |actual beat interval − configured
	// interval| per received heartbeat: the mesh's clock-health signal.
	heartbeatJitter *icescope.Histogram

	nodeCapacity *icescope.GaugeVec
	nodeInflight *icescope.GaugeVec
	nodeCells    *icescope.GaugeVec
	nodeCellsPS  *icescope.GaugeVec
}

func newMeshMetrics(c *Coordinator) meshMetrics {
	r := icescope.NewRegistry()
	m := meshMetrics{reg: r}
	r.GaugeFunc("icemesh_nodes_live", "Worker nodes currently registered.",
		func() float64 { return float64(c.NodeCount()) })
	m.nodesJoined = r.Counter("icemesh_nodes_joined_total", "Node registrations accepted.")
	m.nodesLost = r.Counter("icemesh_nodes_lost_total", "Nodes evicted (drop, timeout, close).")
	m.jobs = r.Counter("icemesh_jobs_total", "RunRange jobs accepted.")
	m.jobsFailed = r.Counter("icemesh_jobs_failed_total", "RunRange jobs that returned an error.")
	m.shardsAssigned = r.Counter("icemesh_shards_assigned_total", "Shard assignments sent (including re-assignments).")
	m.shardRetries = r.Counter("icemesh_shard_retries_total", "Shards re-queued after node loss or deadline.")
	m.cellsDone = r.Counter("icemesh_cells_done_total", "Cells delivered back and merged.")
	m.cellBatches = r.Counter("icemesh_cell_batches_total", "CellBatch frames received.")
	m.spanBatches = r.Counter("icemesh_span_batches_total", "SpanBatch frames received from nodes.")
	m.spansForwarded = r.Counter("icemesh_spans_forwarded_total", "Node spans injected into job traces.")
	m.spanBatchesStale = r.Counter("icemesh_span_batches_stale_total", "SpanBatch frames dropped: their shard no longer belongs to a live traced job.")
	r.GaugeFunc("icemesh_queue_depth", "Shards awaiting a node with window credit.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.pending))
		})
	m.heartbeatJitter = r.Histogram("icemesh_heartbeat_jitter_seconds",
		"Absolute deviation of node heartbeat intervals from the configured beat.", nil)
	m.nodeCapacity = r.GaugeVec("icemesh_node_capacity", "Advertised worker capacity per node.", "node")
	m.nodeInflight = r.GaugeVec("icemesh_node_inflight_shards", "Shards assigned and unfinished per node.", "node")
	m.nodeCells = r.GaugeVec("icemesh_node_cells_total", "Cells delivered per node.", "node")
	m.nodeCellsPS = r.GaugeVec("icemesh_node_cells_per_second", "Per-node delivery rate since join.", "node")
	r.OnCollect(c.syncNodeGauges)
	return m
}

// syncNodeGauges refreshes the per-node vectors from the registry at
// scrape time. It sets them under c.mu, like nodeLost's delete, so a
// node lost mid-scrape cannot have its series re-created after the
// delete (the vectors' own locks never call back into the coordinator).
func (c *Coordinator) syncNodeGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		perSec := 0.0
		if up := time.Since(n.joined).Seconds(); up > 0 {
			perSec = float64(n.cellsDone) / up
		}
		c.met.nodeCapacity.With(n.name).Set(float64(n.capacity))
		c.met.nodeInflight.With(n.name).Set(float64(len(n.inflight)))
		c.met.nodeCells.With(n.name).Set(float64(n.cellsDone))
		c.met.nodeCellsPS.With(n.name).Set(perSec)
	}
}

// dropNodeGauges removes a departed node's labeled series.
func (c *Coordinator) dropNodeGauges(name string) {
	c.met.nodeCapacity.Delete(name)
	c.met.nodeInflight.Delete(name)
	c.met.nodeCells.Delete(name)
	c.met.nodeCellsPS.Delete(name)
}

// meshNode is one registered worker connection.
type meshNode struct {
	name     string
	capacity int
	conn     net.Conn

	wmu  sync.Mutex // serializes frame writes; wbuf is the encode scratch
	wbuf []byte

	// Guarded by Coordinator.mu.
	inflight  map[uint64]*meshShard
	draining  bool
	lastBeat  time.Time
	joined    time.Time
	cellsDone uint64 // cells this node delivered (coordinator's count)
}

// send frames one message to the node with a short write deadline: a
// peer that cannot drain a few control bytes within it is dead weight
// and gets evicted by the caller on error.
func (n *meshNode) send(m any) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	_ = n.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	buf, err := WriteMessage(n.conn, n.wbuf, m)
	n.wbuf = buf
	return err
}

// meshShard is one contiguous cell range of one job. A shard is either
// assigned (node != nil, counted in that node's window) or queued on the
// coordinator's pending FIFO (node == nil).
type meshShard struct {
	id         uint64
	job        *meshJob
	start, end int
	retries    int
	node       *meshNode   // current assignee; nil while queued
	lastNode   *meshNode   // previous assignee; re-dispatch prefers a different node
	deadline   *time.Timer // ShardDeadline re-queue, when configured
	span       icescope.Span
}

// meshJob is one RunRange call in flight.
type meshJob struct {
	scenario string
	p        fleet.Params
	deliver  func(fleet.Result)
	span     icescope.Span // engine-side parent, propagated over RunRange's ctx

	// Guarded by Coordinator.mu.
	base     int // global index of seen[0]
	seen     []bool
	pending  int // shards not yet terminally done
	finished bool
	failed   error
	done     chan struct{}
}

func (j *meshJob) finish(err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.failed = err
	close(j.done)
}

// NewCoordinator returns a coordinator ready to Serve a listener.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:    cfg.withDefaults(),
		nodes:  map[string]*meshNode{},
		shards: map[uint64]*meshShard{},
	}
	c.met = newMeshMetrics(c)
	return c
}

// Serve accepts node registrations until the listener closes. Run it in
// a goroutine; it returns the accept error (net.ErrClosed after Close).
func (c *Coordinator) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go c.serveConn(conn)
	}
}

// Close evicts every node and fails every job still in flight.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	nodes := make([]*meshNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		c.nodeLost(n, errClosed)
	}
	// Evictions fail the jobs with shards on the nodes. A shard still
	// queued now can never run, since no node joins a closed coordinator,
	// so its job fails too.
	c.mu.Lock()
	for _, sh := range c.pending {
		sh.job.finish(errors.Join(ErrNoNodes, errClosed))
	}
	c.pending = nil
	c.mu.Unlock()
}

// Name implements the serving layer's Backend: jobs dispatched here fan
// out across the mesh.
func (c *Coordinator) Name() string { return "mesh" }

// Engine implements Backend: the coordinator is its own fleet engine.
func (c *Coordinator) Engine() fleet.Engine { return c }

// NodeCount reports live registered nodes.
func (c *Coordinator) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// WaitForNodes blocks until at least n nodes are registered or the
// context expires — the cluster-bringup helper scripts and tests use.
func (c *Coordinator) WaitForNodes(ctx context.Context, n int) error {
	for {
		if c.NodeCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("icemesh: %w waiting for %d nodes", ctx.Err(), n)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// serveConn runs one node connection: Hello/Welcome handshake, then the
// event loop. The read deadline doubles as the liveness janitor — a node
// whose heartbeats stop arriving times the read out and is evicted.
func (c *Coordinator) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := ReadMessage(br)
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := first.(*Hello)
	if !ok {
		conn.Close()
		return
	}

	node := &meshNode{
		name:     hello.Node,
		capacity: max(hello.Capacity, 1),
		conn:     conn,
		inflight: map[uint64]*meshShard{},
		lastBeat: time.Now(),
		joined:   time.Now(),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if node.name == "" {
		c.nameSeq++
		node.name = fmt.Sprintf("node-%d", c.nameSeq)
	}
	base := node.name
	for _, taken := c.nodes[node.name]; taken; _, taken = c.nodes[node.name] {
		c.nameSeq++
		node.name = fmt.Sprintf("%s-%d", base, c.nameSeq)
	}
	c.nodes[node.name] = node
	c.mu.Unlock()
	c.met.nodesJoined.Inc()
	c.cfg.Logf("icemesh: node %s joined (capacity %d) from %s", node.name, node.capacity, conn.RemoteAddr())

	if err := node.send(&Welcome{Node: node.name, HeartbeatMS: uint64(c.cfg.Heartbeat / time.Millisecond)}); err != nil {
		c.nodeLost(node, err)
		return
	}

	// A node that joins mid-job starts pulling queued shards immediately —
	// elasticity is a property of the queue, not of a plan.
	c.mu.Lock()
	sends := c.dispatchLocked()
	c.mu.Unlock()
	c.flush(sends)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(missedBeats * c.cfg.Heartbeat))
		m, err := ReadMessage(br)
		if err != nil {
			c.nodeLost(node, err)
			return
		}
		switch v := m.(type) {
		case *Heartbeat:
			c.mu.Lock()
			interval := time.Since(node.lastBeat)
			node.lastBeat = time.Now()
			// Safety net: a beat also pulls work, so a dispatch
			// opportunity missed to a transient condition heals within
			// one heartbeat instead of wedging the queue.
			sends := c.dispatchLocked()
			c.mu.Unlock()
			c.flush(sends)
			c.met.heartbeatJitter.Observe(math.Abs((interval - c.cfg.Heartbeat).Seconds()))
		case *CellBatch:
			c.onCellBatch(node, v)
		case *ShardDone:
			c.onShardDone(node, v)
		case *SpanBatch:
			c.onSpanBatch(v)
		case *Drain:
			c.cfg.Logf("icemesh: node %s draining: %s", node.name, v.Reason)
			c.mu.Lock()
			node.draining = true
			c.mu.Unlock()
		default:
			c.nodeLost(node, fmt.Errorf("icemesh: unexpected %T from node", m))
			return
		}
	}
}

// RunRange implements fleet.Engine: shard [start, end) across the live
// nodes, re-assigning on failure, and deliver every cell exactly once.
func (c *Coordinator) RunRange(ctx context.Context, scenario string, p fleet.Params, start, end int, deliver func(fleet.Result)) error {
	if end <= start {
		return nil
	}
	c.met.jobs.Inc()
	job := &meshJob{
		scenario: scenario, p: p, deliver: deliver,
		base: start, seen: make([]bool, end-start),
		done: make(chan struct{}),
		span: icescope.SpanFromContext(ctx),
	}
	plan := job.span.Child("plan")

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		plan.End(icescope.StrAttr("outcome", "closed"))
		return errClosed
	}
	live := c.liveNodesLocked()
	if len(live) == 0 {
		c.mu.Unlock()
		plan.End(icescope.StrAttr("outcome", "no-nodes"))
		c.met.jobsFailed.Inc()
		return ErrNoNodes
	}
	// No up-front placement: the job just appends fine-grained shards to
	// the global queue, and the credit loop streams them to whichever node
	// has window room. Placement is decided shard-by-shard at pull time,
	// so relative node speed — not a plan drawn before the first cell ran
	// — determines who executes the tail.
	shards := 0
	for lo := start; lo < end; lo += c.cfg.ShardCells {
		hi := min(lo+c.cfg.ShardCells, end)
		c.shardSeq++
		sh := &meshShard{id: c.shardSeq, job: job, start: lo, end: hi}
		c.shards[sh.id] = sh
		c.pending = append(c.pending, sh)
		job.pending++
		shards++
	}
	sends := c.dispatchLocked()
	c.mu.Unlock()
	plan.End(icescope.IntAttr("shards", shards), icescope.IntAttr("nodes", len(live)))
	c.flush(sends)

	defer c.releaseJob(job)
	select {
	case <-job.done:
		if job.failed != nil {
			c.met.jobsFailed.Inc()
		}
		return job.failed
	case <-ctx.Done():
		c.met.jobsFailed.Inc()
		c.mu.Lock()
		job.finish(ctx.Err())
		c.mu.Unlock()
		return ctx.Err()
	}
}

// assignment pairs a planned send with its target, so socket writes can
// happen outside the coordinator lock.
type assignment struct {
	node *meshNode
	msg  *Assign
}

// windowLocked is node n's credit: the number of shards it may hold in
// flight. The default sizes the window so the node's workers stay fed —
// enough shards to cover its capacity at the configured grain, plus two
// so the next pull overlaps the current execution — while keeping the
// tail stealable: everything beyond the window lives on the coordinator
// queue where a faster node can take it. Callers hold c.mu.
func (c *Coordinator) windowLocked(n *meshNode) int {
	if c.cfg.Window > 0 {
		return c.cfg.Window
	}
	w := (n.capacity+c.cfg.ShardCells-1)/c.cfg.ShardCells + 2
	if w < 2 {
		w = 2
	}
	return w
}

// pickNodeLocked chooses the node to pull the queue head: least-loaded
// among live nodes with spare window credit, capacity-weighted; ties go
// to the node that has served the fewest cells, then to name order. A
// re-queued shard prefers a node other than its previous assignee (the
// previous one was slow or suspect) but falls back to it rather than
// stall. Placement never affects results — cells are pure functions of
// their index — so this is purely a throughput policy. Returns nil when
// no node has credit. Callers hold c.mu.
func (c *Coordinator) pickNodeLocked(sh *meshShard) *meshNode {
	better := func(n, old *meshNode) bool {
		nl, ol := len(n.inflight)*old.capacity, len(old.inflight)*n.capacity
		if nl != ol {
			return nl < ol
		}
		if n.cellsDone != old.cellsDone {
			return n.cellsDone < old.cellsDone
		}
		return n.name < old.name
	}
	var target, previous *meshNode
	for _, n := range c.nodes {
		if n.draining || len(n.inflight) >= c.windowLocked(n) {
			continue
		}
		if n == sh.lastNode {
			previous = n
			continue
		}
		if target == nil || better(n, target) {
			target = n
		}
	}
	if target == nil {
		target = previous
	}
	return target
}

// dispatchLocked streams queued shards to nodes with window credit, in
// queue order, until the queue is empty or every node's window is full.
// This is the single scheduling step; it runs on every event that frees
// or adds capacity — job enqueue, ShardDone, node join, re-queue, and
// (as a safety net) heartbeat. Callers hold c.mu and must flush the
// returned sends after unlocking.
func (c *Coordinator) dispatchLocked() []assignment {
	var sends []assignment
	for len(c.pending) > 0 {
		sh := c.pending[0]
		if sh.job.finished {
			c.pending = c.pending[1:]
			delete(c.shards, sh.id)
			continue
		}
		target := c.pickNodeLocked(sh)
		if target == nil {
			break // every node at its window; the next ShardDone resumes
		}
		c.pending = c.pending[1:]
		sends = append(sends, c.assignToLocked(sh, target))
	}
	return sends
}

// assignToLocked records the shard's assignment to target and builds the
// Assign frame; the caller sends after unlocking. Callers hold c.mu.
func (c *Coordinator) assignToLocked(sh *meshShard, target *meshNode) assignment {
	sh.node = target
	target.inflight[sh.id] = sh
	c.met.shardsAssigned.Inc()
	if sh.job.span.Active() {
		sh.span.End(icescope.StrAttr("outcome", "requeued"))
		sh.span = sh.job.span.Child(fmt.Sprintf("shard %d [%d,%d) %s", sh.id, sh.start, sh.end, target.name))
	}
	if c.cfg.ShardDeadline > 0 {
		if sh.deadline != nil {
			sh.deadline.Stop()
		}
		id, node := sh.id, target
		sh.deadline = time.AfterFunc(c.cfg.ShardDeadline, func() { c.shardTimedOut(id, node) })
	}
	p := sh.job.p
	return assignment{node: target, msg: &Assign{
		Shard: sh.id, Scenario: sh.job.scenario,
		Seed: p.Seed, Cells: p.Cells, Start: sh.start, End: sh.end,
		Duration: p.Duration, Knobs: p.Knobs,
		// Traced jobs ask the node to forward its spans back; untraced
		// ones skip the whole forwarding plane on the node.
		Trace: sh.job.span.Active(),
	}}
}

// flush performs the socket writes a locked planning step deferred. A
// failed write evicts the node, which re-queues everything it held.
func (c *Coordinator) flush(sends []assignment) {
	for _, a := range sends {
		if err := a.node.send(a.msg); err != nil {
			c.nodeLost(a.node, err)
		}
	}
}

func (c *Coordinator) liveNodesLocked() []*meshNode {
	out := make([]*meshNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.draining {
			out = append(out, n)
		}
	}
	return out
}

// onCellBatch merges a frame of cells under one lock acquisition, not
// one per cell.
func (c *Coordinator) onCellBatch(node *meshNode, m *CellBatch) {
	c.met.cellBatches.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range m.Cells {
		c.mergeCellLocked(node, &m.Cells[i])
	}
}

// mergeCellLocked merges one delivered cell. Duplicates (a shard
// finished by a node we had already presumed dead and re-assigned) are
// dropped: both copies are byte-identical by the determinism contract,
// so first wins. deliver runs under the coordinator lock, which
// serializes it per coordinator and orders every delivery before the
// job's close. Callers hold c.mu.
func (c *Coordinator) mergeCellLocked(node *meshNode, m *CellDone) {
	sh, ok := c.shards[m.Shard]
	if !ok || sh.job.finished {
		return
	}
	job := sh.job
	i := m.Index - job.base
	if i < 0 || i >= len(job.seen) || job.seen[i] {
		return
	}
	job.seen[i] = true
	node.cellsDone++
	c.met.cellsDone.Inc()
	res := fleet.Result{
		Cell:         fleet.Cell{Index: m.Index, Seed: m.Seed},
		Events:       m.Events,
		WireBytes:    m.WireBytes,
		WireEncodeNS: m.WireEncodeNS,
	}
	if len(m.Metrics) > 0 {
		res.Metrics = m.Metrics
	}
	if m.Err != "" {
		res.Err = errors.New(m.Err)
	}
	job.deliver(res)
}

// onShardDone retires one assignment. A shard-level error is a
// deterministic failure (unknown scenario, bad range) that would fail
// identically anywhere — the job fails rather than retrying.
func (c *Coordinator) onShardDone(node *meshNode, m *ShardDone) {
	c.mu.Lock()
	sh, ok := c.shards[m.Shard]
	if !ok || sh.node != node {
		c.mu.Unlock()
		return // stale: the shard was re-assigned or the job is gone
	}
	delete(c.shards, sh.id)
	delete(node.inflight, sh.id)
	if sh.deadline != nil {
		sh.deadline.Stop()
	}
	outcome := "done"
	if m.Err != "" {
		outcome = "failed"
	}
	sh.span.End(icescope.StrAttr("outcome", outcome), icescope.IntAttr("cells", sh.end-sh.start))
	sh.span = icescope.Span{}
	job := sh.job
	if !job.finished {
		if m.Err != "" {
			job.finish(fmt.Errorf("icemesh: node %s shard [%d,%d): %s", node.name, sh.start, sh.end, m.Err))
		} else if job.pending--; job.pending == 0 {
			job.finish(nil)
		}
	}
	// The retiring shard freed one slot of this node's window: pull the
	// next queued shard. This is the streaming loop's heartbeat — the
	// queue drains at exactly the rate the mesh completes work, so the
	// fastest node ends up executing the most shards.
	sends := c.dispatchLocked()
	c.mu.Unlock()
	c.flush(sends)
}

// onSpanBatch injects a node's forwarded spans into the owning job's
// trace, directly under the job's engine span. The frame's Shard is the
// assignment that recorded the spans; once that shard has retired or
// its job has finished, the frame is dropped, which is benign: spans
// are observability, and a finished job's trace is already sealed.
// Node offsets are re-based onto the job trace's epoch by comparing the
// node's trace clock at send (NowNS) against ours now; network latency
// skews every injected offset by the same one-way delay, which is
// exactly the error bar a cross-node trace carries. Injected spans land
// in the job trace's log, so a reader following the job's /events
// stream sees node spans mid-job.
func (c *Coordinator) onSpanBatch(m *SpanBatch) {
	c.met.spanBatches.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, ok := c.shards[m.Shard]
	if !ok || sh.job.finished || !sh.job.span.Active() {
		c.met.spanBatchesStale.Inc()
		return
	}
	job := sh.job
	tr := job.span.Trace()
	base := tr.Now() - time.Duration(m.NowNS)
	if base < 0 {
		base = 0
	}
	for i := range m.Spans {
		rec := &m.Spans[i]
		var attrs []icescope.Attr
		for _, a := range rec.Attrs {
			if a.IsStr {
				attrs = append(attrs, icescope.StrAttr(a.Key, a.Str))
			} else {
				attrs = append(attrs, icescope.NumAttr(a.Key, a.Num))
			}
		}
		tr.InjectSpan(job.span, rec.Name, base+time.Duration(rec.StartNS), base+time.Duration(rec.EndNS), attrs...)
	}
	c.met.spansForwarded.Add(uint64(len(m.Spans)))
}

// nodeLost evicts a node and re-queues every shard it held.
func (c *Coordinator) nodeLost(node *meshNode, cause error) {
	c.mu.Lock()
	if c.nodes[node.name] != node {
		c.mu.Unlock()
		return // already evicted
	}
	delete(c.nodes, node.name)
	c.met.nodesLost.Inc()
	c.dropNodeGauges(node.name)
	c.cfg.Logf("icemesh: node %s lost: %v", node.name, cause)
	orphans := make([]*meshShard, 0, len(node.inflight))
	for _, sh := range node.inflight {
		orphans = append(orphans, sh)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id < orphans[j].id })
	sends := c.requeueLocked(orphans, fmt.Errorf("icemesh: node %s lost: %w", node.name, cause))
	c.mu.Unlock()
	node.conn.Close()
	c.flush(sends)
}

// shardTimedOut re-assigns one shard that blew its deadline while its
// node stayed otherwise alive (wedged, or just slower than the SLA).
func (c *Coordinator) shardTimedOut(id uint64, node *meshNode) {
	c.mu.Lock()
	sh, ok := c.shards[id]
	if !ok || sh.node != node || sh.job.finished {
		c.mu.Unlock()
		return
	}
	delete(node.inflight, sh.id)
	c.cfg.Logf("icemesh: shard %d [%d,%d) deadline on node %s, re-assigning", sh.id, sh.start, sh.end, node.name)
	sends := c.requeueLocked([]*meshShard{sh}, fmt.Errorf("icemesh: shard %d deadline exceeded on %s", id, node.name))
	c.mu.Unlock()
	c.flush(sends)
}

// requeueLocked pushes orphaned shards back onto the FRONT of the queue
// — they are older than everything queued behind them, and front-placed
// retries keep the merge window (the span of indices with holes) small.
// A job fails once a shard's retry budget is spent, or immediately when
// the mesh has no live node left to ever run it. Callers hold c.mu and
// must flush the returned sends after unlocking.
func (c *Coordinator) requeueLocked(orphans []*meshShard, cause error) []assignment {
	requeued := make([]*meshShard, 0, len(orphans))
	for _, sh := range orphans {
		if sh.job.finished {
			delete(c.shards, sh.id)
			continue
		}
		sh.retries++
		c.met.shardRetries.Inc()
		if sh.retries > maxRetries {
			sh.job.finish(fmt.Errorf("icemesh: shard [%d,%d) failed after %d attempts: %w", sh.start, sh.end, sh.retries, cause))
			delete(c.shards, sh.id)
			continue
		}
		if len(c.liveNodesLocked()) == 0 {
			sh.job.finish(errors.Join(ErrNoNodes, cause))
			delete(c.shards, sh.id)
			continue
		}
		sh.lastNode = sh.node
		sh.node = nil
		if sh.deadline != nil {
			sh.deadline.Stop()
			sh.deadline = nil
		}
		requeued = append(requeued, sh)
	}
	if len(requeued) > 0 {
		c.pending = append(requeued, c.pending...)
	}
	return c.dispatchLocked()
}

// releaseJob drops a finished job's remaining shard bookkeeping,
// including anything still sitting on the queue, and ends the spans of
// the shards it drops.
func (c *Coordinator) releaseJob(job *meshJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, sh := range c.shards {
		if sh.job != job {
			continue
		}
		if sh.deadline != nil {
			sh.deadline.Stop()
		}
		sh.span.End(icescope.StrAttr("outcome", "released"))
		if sh.node != nil {
			delete(sh.node.inflight, id)
		}
		delete(c.shards, id)
	}
	kept := c.pending[:0]
	for _, sh := range c.pending {
		if sh.job != job {
			kept = append(kept, sh)
		}
	}
	c.pending = kept
}

// MetricsText renders the mesh registry in Prometheus text exposition
// format (HELP/TYPE lines included); icegate appends it to /metrics when
// the mesh is the serving backend, and the OnCollect hook refreshes the
// per-node gauges just before rendering.
func (c *Coordinator) MetricsText() string {
	return c.met.reg.Expose()
}
