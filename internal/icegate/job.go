package icegate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// Request describes one servable job: either a fleet scenario ensemble
// (Scenario set to a fleet registry name) or a DESIGN.md experiment table
// (Exp set to a catalog ID). Exactly one of the two must be set.
//
// Worker-pool width is deliberately NOT part of a request: the fleet's
// determinism contract makes results byte-identical at any width, so
// parallelism is a server deployment knob, never a result-identity one.
type Request struct {
	Scenario  string             `json:"scenario,omitempty"`
	Exp       string             `json:"exp,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
	Cells     int                `json:"cells,omitempty"`
	DurationS float64            `json:"duration_s,omitempty"` // scenario horizon; 0 = scenario default
	Knobs     map[string]float64 `json:"knobs,omitempty"`

	// Trace opts this job into icescope span recording, retrievable from
	// GET /jobs/{id}/trace once the job is terminal. Like worker width it
	// is a serving knob, NOT part of result identity: results are byte-
	// identical with tracing on or off, so Key() ignores it and a traced
	// request can be served from an untraced request's cache line.
	Trace bool `json:"trace,omitempty"`

	// Tenant identifies who is submitting, for quota accounting and fair
	// scheduling; empty means AnonTenant. Lane picks the dispatch
	// priority lane: LaneInteractive (the default) is always served
	// before LaneBatch, so bulk sweeps belong in "batch". Both are
	// serving knobs like Trace — they never enter Key(), so every tenant
	// shares one cache line per result.
	Tenant string `json:"tenant,omitempty"`
	Lane   string `json:"lane,omitempty"`
}

// Validate rejects requests that could never run or whose key would be
// unstable (non-finite numbers break cache-key equality).
func (r Request) Validate() error {
	if (r.Scenario == "") == (r.Exp == "") {
		return errors.New("icegate: request must set exactly one of scenario, exp")
	}
	if r.Cells < 0 {
		return fmt.Errorf("icegate: negative cells %d", r.Cells)
	}
	if r.DurationS < 0 || math.IsNaN(r.DurationS) || math.IsInf(r.DurationS, 0) {
		return fmt.Errorf("icegate: bad duration_s %v", r.DurationS)
	}
	// The horizon becomes int64 nanoseconds of sim time: reject what does
	// not fit, and a positive value that would round to 0 (the default).
	if ns := r.DurationS * float64(sim.Second); ns >= math.MaxInt64 || (ns > 0 && ns < 1) {
		return fmt.Errorf("icegate: duration_s %v is outside the simulator's range (1 ns to %v s)", r.DurationS, float64(math.MaxInt64)/float64(sim.Second))
	}
	for k, v := range r.Knobs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("icegate: knob %q is not finite", k)
		}
	}
	if r.Tenant != "" && !tenantNameRE.MatchString(r.Tenant) {
		return fmt.Errorf("icegate: bad tenant %q (want %s)", r.Tenant, tenantNameRE)
	}
	if r.Lane != "" && r.Lane != LaneInteractive && r.Lane != LaneBatch {
		return fmt.Errorf("icegate: unknown lane %q (want %q or %q)", r.Lane, LaneInteractive, LaneBatch)
	}
	if r.Scenario != "" {
		found := false
		for _, n := range fleet.Names() {
			if n == r.Scenario {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("icegate: unknown scenario %q (have %v)", r.Scenario, fleet.Names())
		}
		// A knob the scenario never reads would still enter the cache key,
		// caching a nominal run under the mistyped name — reject instead.
		if known, declared := fleet.KnownKnobs(r.Scenario); declared {
			for k := range r.Knobs {
				if !slices.Contains(known, k) {
					return fmt.Errorf("icegate: scenario %q has no knob %q (have %v)", r.Scenario, k, known)
				}
			}
		}
		return nil
	}
	if !experiments.Has(r.Exp) {
		return fmt.Errorf("icegate: unknown experiment %q (have %v)", r.Exp, experiments.IDs())
	}
	if len(r.Knobs) > 0 || r.DurationS != 0 {
		return errors.New("icegate: knobs/duration_s apply to scenario jobs only")
	}
	return nil
}

// normalized fills the defaults that participate in result identity, so
// "cells omitted" and "cells: 1" hit the same cache line — plus the
// serving-side defaults (tenant, lane), so views and quota accounting
// always see resolved identities.
func (r Request) normalized() Request {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Cells <= 0 {
		r.Cells = 1
	}
	if r.Tenant == "" {
		r.Tenant = AnonTenant
	}
	if r.Lane == "" {
		r.Lane = LaneInteractive
	}
	return r
}

// Key canonicalizes the request into its deterministic cache key: the
// full set of inputs that the simulation result is a pure function of.
func (r Request) Key() string {
	r = r.normalized()
	var b strings.Builder
	if r.Scenario != "" {
		fmt.Fprintf(&b, "scenario/%s", r.Scenario)
	} else {
		fmt.Fprintf(&b, "exp/%s", r.Exp)
	}
	fmt.Fprintf(&b, "?seed=%d&cells=%d", r.Seed, r.Cells)
	if r.DurationS != 0 {
		fmt.Fprintf(&b, "&duration_s=%g", r.DurationS)
	}
	knobs := make([]string, 0, len(r.Knobs))
	for k := range r.Knobs {
		knobs = append(knobs, k)
	}
	sort.Strings(knobs)
	for _, k := range knobs {
		fmt.Fprintf(&b, "&knob.%s=%g", k, r.Knobs[k])
	}
	return b.String()
}

// duration converts the requested horizon to sim time.
func (r Request) duration() sim.Time {
	return sim.Time(r.DurationS * float64(sim.Second))
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final — clients poll until it
// is.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

func (s Status) terminal() bool { return s.Terminal() }

// CellResult is the streamed per-cell record: one NDJSON line per
// completed cell.
type CellResult struct {
	Index   int                `json:"index"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// Job tracks one submission through queued→running→done/failed/cancelled.
type Job struct {
	ID  string
	Req Request // normalized form
	key string

	// Scheduler bookkeeping, guarded by Scheduler.mu (not j.mu): the
	// dispatch lane, the cell-quota charge, whether an executor has
	// popped the job, whether its resources have been released, and when
	// it entered its queue.
	laneIdx    int
	cost       int
	dispatched bool
	released   bool
	enqueuedAt time.Time

	mu         sync.Mutex
	status     Status
	errMsg     string
	cached     bool
	cellsTotal int
	cells      []CellResult // completed cells, in delivery order (the /stream log)
	table      string       // rendered result, set on success
	cancel     context.CancelFunc
	wake       chan struct{} // made when a cellsFrom reader waits; closed by the next delivery or the end
	done       chan struct{} // closed on terminal status

	// Tracing (nil/zero unless Req.Trace): tr holds the job's spans, root
	// covers submission→terminal, qspan covers the time queued, and run
	// covers the executor's work — the parent every fleet/engine span
	// hangs from. run is written in start() and read by the same executor
	// goroutine, so it needs no extra locking.
	tr    *icescope.Trace
	root  icescope.Span
	qspan icescope.Span
	run   icescope.Span
}

func newJob(id string, req Request) *Job {
	req = req.normalized()
	j := &Job{
		ID: id, Req: req, key: req.Key(), status: StatusQueued, done: make(chan struct{}),
		laneIdx: laneIndex(req.Lane), cost: req.Cells,
	}
	if req.Scenario != "" {
		j.cellsTotal = req.Cells
	}
	return j
}

// enableTrace starts the job's trace and its root span; called once at
// Submit, before the job is visible to anything concurrent, so the log
// that /events follows always starts at the job root.
func (j *Job) enableTrace() {
	j.tr = icescope.NewTrace(j.ID)
	j.root = j.tr.Start(icescope.Span{}, "job "+j.ID)
	j.qspan = j.root.Child("queued")
}

// traceInstant drops a zero-duration marker on the job's trace.
func (j *Job) traceInstant(name string) {
	j.tr.Instant(j.root, name)
}

// TraceData returns the job's trace once the job is terminal, or nil
// while it is live (its trace is a complete record only once the job
// has ended; /events follows it meanwhile) or when it was not traced.
func (j *Job) TraceData() *icescope.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tr == nil || !j.status.terminal() {
		return nil
	}
	return j.tr
}

// Traced reports whether the job was submitted with tracing on.
func (j *Job) Traced() bool { return j.tr != nil }

// closeTraceLocked ends whatever job-lifecycle spans are still open as
// the job reaches status, then closes the trace's log (the final end
// events land first, so readers see the root close before the log
// does); callers hold j.mu. Ending the zero Span is a no-op, so every
// path simply calls this once.
func (j *Job) closeTraceLocked(status Status) {
	j.qspan.End()
	j.qspan = icescope.Span{}
	j.run.End()
	j.run = icescope.Span{}
	if j.root.Active() {
		j.root.End(icescope.StrAttr("status", string(status)))
		j.root = icescope.Span{}
	}
	j.tr.Close()
}

// View is the JSON shape of a job's status.
type View struct {
	ID         string  `json:"id"`
	Status     Status  `json:"status"`
	Request    Request `json:"request"`
	Tenant     string  `json:"tenant"`
	Lane       string  `json:"lane"`
	Cached     bool    `json:"cached"`
	CellsTotal int     `json:"cells_total"`
	CellsDone  int     `json:"cells_done"`
	Error      string  `json:"error,omitempty"`
}

// View snapshots the job for the status endpoints.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return View{
		ID: j.ID, Status: j.status, Request: j.Req, Tenant: j.Req.Tenant,
		Lane: j.Req.Lane, Cached: j.cached,
		CellsTotal: j.cellsTotal, CellsDone: len(j.cells), Error: j.errMsg,
	}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Table returns the rendered result and whether it is available yet.
func (j *Job) Table() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table, j.status == StatusDone
}

// Done exposes the terminal-state signal (closed when the job finishes,
// fails, or is cancelled).
func (j *Job) Done() <-chan struct{} { return j.done }

// start transitions queued→running; false if the job was cancelled while
// queued (the executor then skips it).
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.qspan.End()
	j.qspan = icescope.Span{}
	j.run = j.root.Child("run")
	return true
}

// deliver records one completed cell and wakes the /stream readers
// waiting for it.
func (j *Job) deliver(cr CellResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.cells = append(j.cells, cr)
	j.wakeLocked()
}

// wakeLocked releases the readers waiting in cellsFrom; callers hold
// j.mu.
func (j *Job) wakeLocked() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// cellsFrom returns the delivered cells from position i on, in delivery
// order, and whether the job is terminal, after which no cell lands.
// When there are none and the job is live, wait is closed by the next
// delivery or by the job's end. The returned slice shares the job's
// storage and must not be modified.
func (j *Job) cellsFrom(i int) (cells []CellResult, wait <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.cells); i < n {
		return j.cells[i:n:n], nil, j.status.terminal()
	}
	if j.status.terminal() {
		return nil, nil, true
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return nil, j.wake, false
}

// cellsByIndex returns a copy of the delivered cells with each placed at
// its Index: the order a cache hit replays and the store keeps.
func (j *Job) cellsByIndex() []CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]CellResult, len(j.cells))
	copy(out, j.cells)
	for _, cr := range j.cells {
		if cr.Index >= 0 && cr.Index < len(out) {
			out[cr.Index] = cr
		}
	}
	return out
}

// endLocked moves the job to its terminal status: it closes the trace,
// wakes the /stream readers and closes Done. Callers hold j.mu.
func (j *Job) endLocked(status Status) {
	j.status = status
	j.closeTraceLocked(status)
	j.wakeLocked()
	close(j.done)
}

// finish moves the job to a terminal state.
func (j *Job) finish(status Status, table, errMsg string, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.table = table
	j.errMsg = errMsg
	j.cached = cached
	j.endLocked(status)
}

// requestCancel flips a queued job straight to cancelled, running
// release before Done closes, or signals a running job's context;
// terminal jobs are left alone (returns false).
func (j *Job) requestCancel(release func()) bool {
	j.mu.Lock()
	if j.status == StatusQueued {
		release()
		j.errMsg = context.Canceled.Error()
		j.endLocked(StatusCancelled)
		j.mu.Unlock()
		return true
	}
	if j.status == StatusRunning && j.cancel != nil {
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return true
	}
	j.mu.Unlock()
	return false
}
