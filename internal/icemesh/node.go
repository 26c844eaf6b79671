package icemesh

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// NodeConfig sizes one worker node.
type NodeConfig struct {
	Coordinator string // coordinator address (host:port)
	Name        string // advertised node name; "" lets the coordinator pick
	Workers     int    // slots of each job's cell pool, advertised as capacity; <=0 means 1
	Logf        func(format string, args ...any)

	// Obs, when non-nil, receives the node's serving metrics. The daemon
	// registers the handles once (NewNodeObs) and reuses them across
	// re-dials, so counters survive connection loss.
	Obs *NodeObs
}

const (
	dialAttempts = 30 // dials (zero Backoff: 100ms doubling to 5s) before Run gives up
	batchCells   = 32 // CellDone entries per CellBatch frame
	batchSpans   = 64 // SpanRec entries per SpanBatch frame
)

// NodeObs bundles the worker node's icescope handles: how many shards
// and cells it executed, its heartbeat cadence, and where its time goes
// (shard execution, per-cell latency, pool queue wait).
type NodeObs struct {
	ShardsDone   *icescope.Counter
	ShardsFailed *icescope.Counter
	CellsDone    *icescope.Counter
	Heartbeats   *icescope.Counter
	ShardSeconds *icescope.Histogram
	Fleet        *fleet.Obs
}

// NewNodeObs registers the node metric family on reg (icenode_*) and
// returns the handles for NodeConfig.Obs. Call once per process.
func NewNodeObs(reg *icescope.Registry) *NodeObs {
	return &NodeObs{
		ShardsDone:   reg.Counter("icenode_shards_done_total", "Shard assignments executed to completion."),
		ShardsFailed: reg.Counter("icenode_shards_failed_total", "Shard assignments that failed at build or range validation."),
		CellsDone:    reg.Counter("icenode_cells_done_total", "Cells executed and sent back."),
		Heartbeats:   reg.Counter("icenode_heartbeats_total", "Heartbeats sent to the coordinator."),
		ShardSeconds: reg.Histogram("icenode_shard_seconds", "Wall time executing one shard assignment.", nil),
		Fleet: &fleet.Obs{
			CellSeconds: reg.Histogram("icenode_cell_seconds",
				"Per-cell execution latency on this node's pool.", nil),
			QueueWaitSeconds: reg.Histogram("icenode_cell_queue_wait_seconds",
				"Per-cell wait between dispatch and a pool slot picking it up on this node.", nil),
		},
	}
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one worker: it registers with the coordinator, heartbeats,
// executes assigned cell ranges, and sends each range's results back in
// CellBatch frames once the range ends. Assignments within the
// coordinator-granted credit window execute concurrently. Each job's
// shards share one fleet pool of Workers slots, so no job runs more
// than Workers cells at once here, while shards of other jobs run on
// their own pools.
type Node struct {
	cfg NodeConfig

	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte

	mu        sync.Mutex
	name      string // coordinator-assigned name, set after Welcome
	inflight  int    // assignments accepted and not yet finished
	cellsDone uint64
	draining  bool

	// jmu guards the per-job pool cache, rebuilt per Run (per connection).
	jmu  sync.Mutex
	jobs map[string]*nodeJob
}

// nodeJob is one job's cell pool on this node, keyed by the assignment's
// job parameters, so every shard of the job runs on it.
type nodeJob struct {
	pool *fleet.Pool
	refs int // assignments currently executing on it
}

// NewNode returns an unconnected node; Run connects and serves.
func NewNode(cfg NodeConfig) *Node {
	return &Node{cfg: cfg.withDefaults()}
}

// Name reports the coordinator-assigned node name ("" before Welcome).
func (n *Node) Name() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.name
}

func (n *Node) send(m any) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	if n.conn == nil {
		return errors.New("icemesh: node not connected")
	}
	_ = n.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	buf, err := WriteMessage(n.conn, n.wbuf, m)
	n.wbuf = buf
	return err
}

// assignKey identifies the job a shard belongs to by its rebuild
// parameters — every shard of one job carries identical ones, so the key
// needs no job id on the wire. Tracing is per assignment, so traced and
// untraced jobs with identical parameters share one pool.
func assignKey(a *Assign) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%d|%d|%d", a.Scenario, a.Seed, a.Cells, int64(a.Duration))
	knobs := make([]string, 0, len(a.Knobs))
	for k := range a.Knobs {
		knobs = append(knobs, k)
	}
	sort.Strings(knobs)
	for _, k := range knobs {
		fmt.Fprintf(&sb, "|%s=%g", k, a.Knobs[k])
	}
	return sb.String()
}

// jobFor returns the cell pool of the assignment's job, making it on
// first use, plus a release for when the shard finishes. Making a pool
// for a new job drops the pools of old jobs that no shard holds
// (refs == 0), so the cache holds one pool per concurrently running job,
// not one per job ever seen.
func (n *Node) jobFor(a *Assign) (j *nodeJob, release func()) {
	key := assignKey(a)
	n.jmu.Lock()
	defer n.jmu.Unlock()
	j = n.jobs[key]
	if j == nil {
		for k, old := range n.jobs {
			if old.refs == 0 {
				delete(n.jobs, k)
			}
		}
		j = &nodeJob{pool: fleet.NewPool(n.cfg.Workers)}
		n.jobs[key] = j
	}
	j.refs++
	return j, func() {
		n.jmu.Lock()
		j.refs--
		n.jmu.Unlock()
	}
}

// Run dials the coordinator (with the shared backoff+jitter retry),
// registers, and serves assignments until the connection drops or ctx
// is cancelled. A cleanly drained shutdown (Drain, then cancel) returns
// nil; anything else returns the terminating error.
func (n *Node) Run(ctx context.Context) error {
	var conn net.Conn
	dial := func() error {
		c, err := (&net.Dialer{Timeout: 3 * time.Second}).DialContext(ctx, "tcp", n.cfg.Coordinator)
		if err == nil {
			conn = c
		}
		return err
	}
	if err := Retry(ctx, dialAttempts, Backoff{}, dial); err != nil {
		return fmt.Errorf("icemesh: dialing coordinator %s: %w", n.cfg.Coordinator, err)
	}
	defer conn.Close()
	n.wmu.Lock()
	n.conn = conn
	n.wmu.Unlock()

	if err := n.send(&Hello{Node: n.cfg.Name, Capacity: n.cfg.Workers}); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := ReadMessage(br)
	if err != nil {
		return fmt.Errorf("icemesh: awaiting welcome: %w", err)
	}
	welcome, ok := first.(*Welcome)
	if !ok {
		return fmt.Errorf("icemesh: expected welcome, got %T", first)
	}
	n.mu.Lock()
	n.name = welcome.Node
	n.mu.Unlock()
	beat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if beat <= 0 {
		beat = time.Second
	}
	n.cfg.Logf("icemesh: registered as %s (capacity %d, heartbeat %v)", welcome.Node, n.cfg.Workers, beat)

	// connCtx scopes the helper goroutines to THIS connection: it ends
	// when ctx does or when the read loop breaks, so a dropped connection
	// stops the heartbeats and flushes the queue instead of wedging
	// workers.Wait() — Run must return for the daemon to re-dial.
	connCtx, connCancel := context.WithCancel(ctx)
	defer connCancel()
	// ctx cancellation unblocks the reader by closing the socket.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	n.jobs = map[string]*nodeJob{}
	var workers sync.WaitGroup
	workers.Add(1)
	go func() { // heartbeats, independent of execution
		defer workers.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.mu.Lock()
				hb := &Heartbeat{Inflight: n.inflight, CellsDone: n.cellsDone}
				n.mu.Unlock()
				_ = n.send(hb)
				if n.cfg.Obs != nil {
					n.cfg.Obs.Heartbeats.Inc()
				}
			case <-connCtx.Done():
				return
			}
		}
	}()

	var readErr error
	for {
		_ = conn.SetReadDeadline(time.Time{}) // liveness is the coordinator's side
		m, err := ReadMessage(br)
		if err != nil {
			readErr = err
			connCancel() // connection gone: release heartbeats, cancel running work
			break
		}
		switch v := m.(type) {
		case *Assign:
			// Assignments in the credit window run concurrently; the
			// job's pool bounds its parallelism at Workers cells.
			n.mu.Lock()
			n.inflight++
			n.mu.Unlock()
			workers.Add(1)
			go func() {
				defer workers.Done()
				n.execute(connCtx, v)
				n.mu.Lock()
				n.inflight--
				n.mu.Unlock()
			}()
		case *Drain:
			n.cfg.Logf("icemesh: coordinator drain: %s", v.Reason)
		default:
			// Tolerate unknown-but-valid control messages.
		}
	}
	workers.Wait()

	if ctx.Err() != nil || n.isDraining() {
		return nil // orderly shutdown
	}
	return readErr
}

// execute runs one assigned range on its job's pool and sends its
// results back once the range ends (sendShard). Cell-level failures
// ride their CellBatch entry (matching local fleet semantics, where a
// bad cell doesn't kill the ensemble); only range-level failures — an
// unknown scenario, an impossible range — fail the shard.
func (n *Node) execute(ctx context.Context, a *Assign) {
	var t0 time.Time
	if n.cfg.Obs != nil {
		t0 = time.Now()
	}
	job, release := n.jobFor(a)
	defer release()
	// A traced job's spans are recorded on a trace of this assignment and
	// sent with its results, so the coordinator's job trace shows this
	// node's shard and cells. An untraced assignment records no spans.
	var tr *icescope.Trace
	var sp icescope.Span
	if a.Trace {
		tr = icescope.NewTrace("node " + n.Name())
		sp = tr.Start(icescope.Span{}, fmt.Sprintf("shard %d [%d,%d)", a.Shard, a.Start, a.End))
	}
	spec, err := fleet.Build(a.Scenario, fleet.Params{
		Seed:     a.Seed,
		Cells:    a.Cells,
		Duration: a.Duration,
		Knobs:    a.Knobs,
	})
	var res []fleet.Result
	if err == nil {
		runner := fleet.Runner{Pool: job.pool, Span: sp}
		if n.cfg.Obs != nil {
			runner.Obs = n.cfg.Obs.Fleet
		}
		res, err = runner.RunRange(ctx, spec, a.Start, a.End, nil)
	}
	if res == nil {
		// The job or the range could not run at all, so no cell ran.
		sp.End(icescope.StrAttr("outcome", "failed"))
		n.sendShard(a, nil, tr, err.Error())
		if n.cfg.Obs != nil {
			n.cfg.Obs.ShardsFailed.Inc()
		}
		return
	}
	if ctx.Err() != nil {
		// Connection teardown cancelled the range mid-dispatch: cells may
		// have been skipped, so a clean ShardDone here could race ahead of
		// the coordinator's eviction and retire the shard with holes in
		// it. Send nothing — eviction re-queues everything we held, and
		// the re-run records its own cells and spans.
		return
	}
	sp.End(icescope.StrAttr("outcome", "done"), icescope.IntAttr("cells", a.End-a.Start))
	n.sendShard(a, res, tr, "")
	n.mu.Lock()
	n.cellsDone += uint64(len(res))
	n.mu.Unlock()
	if n.cfg.Obs != nil {
		n.cfg.Obs.CellsDone.Add(uint64(len(res)))
		n.cfg.Obs.ShardsDone.Inc()
		n.cfg.Obs.ShardSeconds.Observe(time.Since(t0).Seconds())
	}
}

// sendShard writes one ended shard back: its cells in range order, then
// the spans of its trace (nil when untraced), then the ShardDone that
// retires it, carrying errMsg for a range that could not run. Frame
// order is write order on TCP, so the coordinator has merged every cell
// and injected every span of the shard before the ShardDone — and the
// end of the job — arrives. Send errors are dropped: a dead connection
// surfaces in Run's read loop, and the coordinator re-queues whatever
// this node never delivered.
func (n *Node) sendShard(a *Assign, res []fleet.Result, tr *icescope.Trace, errMsg string) {
	for lo := 0; lo < len(res); lo += batchCells {
		chunk := res[lo:min(lo+batchCells, len(res))]
		cells := make([]CellDone, len(chunk))
		for i, r := range chunk {
			cells[i] = CellDone{
				Shard: a.Shard, Index: r.Cell.Index, Seed: r.Cell.Seed,
				Events: r.Events, WireBytes: r.WireBytes, WireEncodeNS: r.WireEncodeNS,
				Metrics: r.Metrics,
			}
			if r.Err != nil {
				cells[i].Err = r.Err.Error()
			}
		}
		_ = n.send(&CellBatch{Cells: cells})
	}
	// Spans carry trace-clock offsets; NowNS lets the coordinator re-base
	// them onto the job trace's epoch.
	spans := tr.Spans()
	for lo := 0; lo < len(spans); lo += batchSpans {
		chunk := spans[lo:min(lo+batchSpans, len(spans))]
		recs := make([]SpanRec, len(chunk))
		for i, ev := range chunk {
			recs[i] = SpanRec{Name: ev.Name, StartNS: uint64(ev.Start), EndNS: uint64(ev.End)}
			for _, at := range ev.Attrs {
				recs[i].Attrs = append(recs[i].Attrs, SpanAttr{Key: at.Key, Str: at.Str, Num: at.Num, IsStr: at.IsStr()})
			}
		}
		_ = n.send(&SpanBatch{Shard: a.Shard, NowNS: uint64(tr.Now()), Spans: recs})
	}
	_ = n.send(&ShardDone{Shard: a.Shard, Err: errMsg})
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

// Drain is the node's graceful-shutdown handshake: announce the drain
// (the coordinator assigns nothing more), finish everything queued and
// executing, and return once idle — or with ctx's error at the
// deadline, leaving stragglers to the coordinator's re-assignment.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	already := n.draining
	n.draining = true
	n.mu.Unlock()
	if !already {
		_ = n.send(&Drain{Reason: "node draining"})
	}
	for {
		n.mu.Lock()
		idle := n.inflight == 0
		n.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("icemesh: drain deadline: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}
