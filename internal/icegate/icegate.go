// Package icegate is the serving layer above the fleet: a long-running
// gateway that accepts scenario-run and experiment-table jobs over
// HTTP/JSON, schedules them across tenants with quotas and weighted
// fair queueing, streams per-cell results as they complete, and serves
// a repeat of a finished job from a deterministic cache: the finished
// jobs it retains and, when configured, a disk-backed content-addressed
// store that survives restarts.
//
// The design leans on the layer below it: because a fleet result is a
// pure function of (scenario, seed, cells, duration, knobs) — byte-
// identical at any worker count — the gateway can key a result cache on
// exactly that tuple and serve repeat queries without simulating, and it
// can treat parallelism (fleet workers, concurrent jobs) purely as
// deployment capacity. cmd/icegated wraps this package as a daemon;
// cmd/icerun -remote is its client.
package icegate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/icestore"
)

// Config sizes the gateway.
type Config struct {
	QueueDepth int // jobs admitted but not yet executing, all tenants; <=0 means 16
	Executors  int // jobs executing concurrently; <=0 means 1
	Workers    int // local cells computed at once, across all jobs; <=0 means 1
	MaxCells   int // per-job cell ceiling (admission control); <=0 means 4096

	// Tenants is the multi-tenant policy: per-tenant quotas and fair-share
	// weights. The zero value admits everyone under one unlimited default
	// quota, which reduces the scheduler to the single-tenant FIFO it used
	// to be.
	Tenants TenantsConfig

	// TraceSample, when positive, force-enables span recording on every
	// Nth submitted job (the 1-in-N always-on profile a long-running
	// daemon wants: recent traces on hand without clients asking).
	// Tracing is observability only — it never touches result bytes or
	// cache identity — so sampling composes with per-request Trace: a
	// sampled job is traced exactly as if the client had asked.
	TraceSample int

	// Backend selects where fleet cells execute; nil means LocalBackend
	// (this process's pool). Deliberately not part of any result
	// identity: determinism makes backends interchangeable.
	Backend Backend

	// Store, when non-nil, is the disk-backed level below the retained
	// jobs: a repeat that no retained job can serve is looked up there,
	// and finished results are written through, so cache hits survive
	// daemon restarts.
	Store *icestore.Store
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Executors <= 0 {
		c.Executors = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.Backend == nil {
		c.Backend = LocalBackend{}
	}
	return c
}

// The job registry is the gateway's in-memory result cache, bounded
// twice: by jobs, and by the cells its terminal jobs hold. A job holds at
// most MaxCells cells, so the newest finished job always fits the cell
// bound; at the default ceiling, a job of 32 cells or fewer meets the job
// bound first.
const (
	retainJobs     = 1024
	retainCeilings = 8 // terminal jobs hold at most retainCeilings × MaxCells cells
)

// ErrQueueFull is admission control's global rejection: the HTTP layer
// maps it (and the per-tenant QuotaError wrapping it) to 429 Too Many
// Requests.
var ErrQueueFull = errors.New("icegate: job queue full")

// Scheduler owns the tenant queues, the executor pool, the cell pool
// that every job's local cells share, and the retained jobs, which are
// its result cache.
type Scheduler struct {
	cfg   Config
	store *icestore.Store
	met   *gatewayMetrics
	pool  *fleet.Pool // Workers slots: bounds local cells across all jobs

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond // signalled on enqueue; broadcast on completion/close
	closed bool
	seq    int
	jobs   map[string]*Job
	order  []string // submission order, for listing and eviction

	// The result cache, guarded by mu: results maps a cache key to the
	// newest retained job that finished it done, retainedCells counts the
	// cells that retained terminal jobs hold, and hits and misses count
	// lookups.
	results       map[string]*Job
	retainedCells int
	hits, misses  uint64

	// Multi-tenant scheduling state, all guarded by mu. tenants holds one
	// state per identity with work in flight; vtime is the weighted-fair-
	// queueing virtual clock, advanced to the dispatched tenant's pass at
	// every pop so tenants activating later join the race where it
	// currently stands rather than at zero (which would let them starve
	// everyone while they burn banked credit).
	tenants     map[string]*tenantState
	queuedTotal int
	vtime       float64

	// Span drops carried over from evicted jobs, so the
	// icescope_spans_dropped_total exposition stays monotone after the
	// job registry rotates. Guarded by mu.
	evictedSpanDrops uint64

	// hooks let lifecycle tests observe transitions without polling;
	// zero outside tests.
	hooks schedulerHooks
}

// schedulerHooks are test observation points on the job lifecycle.
type schedulerHooks struct {
	jobRunning func(*Job) // after queued->running, before cells execute
}

// NewScheduler starts cfg.Executors executor goroutines and returns the
// scheduler. Close must be called to stop them.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		store:   cfg.Store,
		pool:    fleet.NewPool(cfg.Workers),
		baseCtx: ctx,
		stop:    stop,
		jobs:    map[string]*Job{},
		results: map[string]*Job{},
		tenants: map[string]*tenantState{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newGatewayMetrics(s) // after s: the GaugeFuncs read scheduler state
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Close rejects further submissions, cancels every queued and running
// job, and waits for the executors to drain. Safe to call once; callers
// must stop the HTTP front end first or accept "scheduler closed" errors.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, j := range s.jobs {
			s.cancelLocked(j)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Drain is the graceful half of shutdown: stop admitting, let queued
// and running jobs run to completion, then release the executors. When
// ctx expires first, whatever still runs is cancelled and Drain returns
// ctx.Err() — the caller is exiting and a simulation cell is not
// interruptible mid-kernel, so the deadline is the contract. Close
// afterwards is safe (and a no-op for the queues). cmd/icegated calls
// this on SIGTERM.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			s.cancelLocked(j)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		s.stop()
		return ctx.Err()
	}
}

// Store exposes the disk-backed result store; nil when none configured.
func (s *Scheduler) Store() *icestore.Store { return s.store }

// Backend reports where this scheduler's cells execute.
func (s *Scheduler) Backend() Backend { return s.cfg.Backend }

// QueueDepth reports jobs admitted but not yet picked up by an executor,
// across all tenants and lanes.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedTotal
}

// Submit validates and admits one job under its tenant's quota. A cache
// hit, served by a retained job or the store, completes the job
// instantly — it is registered with an ID like any other so clients keep
// one code path, and serves the next repeat itself — and an admission
// rejection (global queue full, or any per-tenant quota) returns an
// ErrQueueFull-family error without registering anything.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Cells > s.cfg.MaxCells {
		return nil, fmt.Errorf("icegate: %d cells exceeds the per-job ceiling %d", req.Cells, s.cfg.MaxCells)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSchedulerClosed
	}
	s.seq++
	job := newJob(fmt.Sprintf("job-%06d", s.seq), req)
	if req.Trace || (s.cfg.TraceSample > 0 && s.seq%s.cfg.TraceSample == 0) {
		job.enableTrace()
	}

	if hit := s.results[job.key]; hit != nil {
		s.hits++
		table, _ := hit.Table()
		s.finishFromCache(job, table, hit.cellsByIndex(), "cache hit")
		return job, nil
	}
	s.misses++
	if sr, ok := s.storeGet(job.key); ok {
		s.finishFromCache(job, sr.Table, sr.Cells, "store hit")
		return job, nil
	}

	// Admission control, cheapest rejection first. Every path rejects
	// rather than blocks, so one flood of submissions degrades to fast
	// 429s instead of head-of-line latency for everyone.
	name := job.Req.Tenant
	t := s.tenants[name]
	if t == nil && !s.admitNewTenantLocked(name) {
		s.rejectLocked(name)
		return nil, &QuotaError{Tenant: name, Reason: "tenants", RetryAfter: retryAfterHint(0)}
	}
	if s.queuedTotal >= s.cfg.QueueDepth {
		s.rejectLocked(name)
		return nil, ErrQueueFull
	}
	quota := s.cfg.Tenants.quotaFor(name)
	queued, cells := 0, 0
	if t != nil {
		queued, cells = t.queued, t.cells
	}
	if quota.MaxQueued > 0 && queued >= quota.MaxQueued {
		s.rejectLocked(name)
		return nil, &QuotaError{Tenant: name, Reason: "queued", RetryAfter: retryAfterHint(queued)}
	}
	if quota.MaxCells > 0 && cells+job.cost > quota.MaxCells {
		s.rejectLocked(name)
		return nil, &QuotaError{Tenant: name, Reason: "cells", RetryAfter: retryAfterHint(queued)}
	}

	s.enqueueLocked(s.tenantLocked(name), job)
	s.register(job)
	return job, nil
}

// finishFromCache completes a job instantly from a cached result, its
// cells in index order, and retains it; callers hold s.mu.
func (s *Scheduler) finishFromCache(job *Job, table string, cells []CellResult, how string) {
	job.traceInstant(how)
	for _, cr := range cells {
		job.deliver(cr)
	}
	job.finish(StatusDone, table, "", true)
	s.retainLocked(job) // before register, which may evict it
	s.register(job)
	s.met.jobsDone.Add(1)
}

// admitNewTenantLocked decides whether an identity with no state yet may
// enter the scheduler. Configured tenants and the anonymous bucket are
// always admitted; unnamed identities are capped so a hostile client
// minting fresh names cannot grow the tenant table (and the metric
// label space) without bound. Callers hold s.mu.
func (s *Scheduler) admitNewTenantLocked(name string) bool {
	if name == AnonTenant {
		return true
	}
	if _, named := s.cfg.Tenants.Tenants[name]; named {
		return true
	}
	return len(s.tenants) < s.cfg.Tenants.maxTenants()
}

// rejectLocked counts one admission rejection; callers hold s.mu.
func (s *Scheduler) rejectLocked(tenant string) {
	s.met.jobsRejected.Add(1)
	s.met.tenantRejected.With(tenant).Inc()
}

// retryAfterHint scales the 429 Retry-After hint with the tenant's
// backlog — one second plus one per queued job, bounded — so a client
// honoring it naturally backs off harder the deeper it has dug.
func retryAfterHint(queued int) time.Duration {
	d := time.Duration(1+queued) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// tenantLocked returns the live state for name, creating it at the
// current virtual time if the tenant is newly active. Callers hold s.mu
// and must have passed admitNewTenantLocked.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, q: s.cfg.Tenants.quotaFor(name), pass: s.vtime}
	s.tenants[name] = t
	return t
}

// enqueueLocked charges the job to its tenant and appends it to the
// tenant's lane queue. Callers hold s.mu.
func (s *Scheduler) enqueueLocked(t *tenantState, job *Job) {
	if !t.active() && t.pass < s.vtime {
		// An idle tenant's pass is stale; catch it up so it neither
		// starves behind everyone (pass too high never happens — pops only
		// raise it) nor spends banked credit from its idle time.
		t.pass = s.vtime
	}
	job.enqueuedAt = time.Now()
	t.queues[job.laneIdx] = append(t.queues[job.laneIdx], job)
	t.queued++
	t.cells += job.cost
	s.queuedTotal++
	s.met.tenantSubmitted.With(t.name).Inc()
	s.cond.Signal()
}

// popLocked selects the next job to dispatch: strict lane priority
// first (interactive before batch, across all tenants), weighted fair
// queueing between tenants within the lane, FIFO within one tenant's
// lane. Tenants at their MaxRunning cap are passed over without losing
// their place. Returns nil when nothing is dispatchable. Callers hold
// s.mu.
func (s *Scheduler) popLocked() *Job {
	for lane := 0; lane < numLanes; lane++ {
		var best *tenantState
		for _, t := range s.tenants {
			if len(t.queues[lane]) == 0 {
				continue
			}
			if t.q.MaxRunning > 0 && t.running >= t.q.MaxRunning {
				continue
			}
			if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
				best = t
			}
		}
		if best == nil {
			continue
		}
		q := best.queues[lane]
		job := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		best.queues[lane] = q[:len(q)-1]
		best.queued--
		best.running++
		job.dispatched = true
		s.queuedTotal--
		// Advance the virtual clock to the winner's pass, then charge the
		// winner cost/weight: heavier tenants' passes climb slower, so
		// they win proportionally more dispatches.
		s.vtime = best.pass
		best.pass += float64(job.cost) / best.weight()
		s.met.queueWait.With(laneName(lane)).Observe(time.Since(job.enqueuedAt).Seconds())
		return job
	}
	return nil
}

// releaseLocked returns an admitted job's resources to its tenant, once:
// a queued job leaves its lane queue, a dispatched one frees its running
// slot, and either way its cell charge is freed and an idle tenant
// reaped. Every path runs it before the job's Done closes, so a client
// that resubmits the moment Done closes never meets its own old charge.
// Callers hold s.mu.
func (s *Scheduler) releaseLocked(job *Job) {
	if job.released {
		return
	}
	job.released = true
	t := s.tenants[job.Req.Tenant]
	if t == nil {
		return
	}
	if job.dispatched {
		t.running--
	} else if i := slices.Index(t.queues[job.laneIdx], job); i >= 0 {
		t.queues[job.laneIdx] = slices.Delete(t.queues[job.laneIdx], i, i+1)
		t.queued--
		s.queuedTotal--
	}
	t.cells -= job.cost
	s.reapLocked(t)
	s.cond.Broadcast()
}

// cancelLocked aborts a queued or running job (see Job.requestCancel),
// releasing a queued one's resources before its Done closes; it reports
// whether there was anything to abort. Callers hold s.mu.
func (s *Scheduler) cancelLocked(j *Job) bool {
	return j.requestCancel(func() { s.releaseLocked(j) })
}

// reapLocked drops a tenant with nothing in flight: state is cheap to
// recreate (tenantLocked), and dropping it bounds the tenant table and
// the per-tenant metric children at "currently active" instead of "ever
// seen". Callers hold s.mu.
func (s *Scheduler) reapLocked(t *tenantState) {
	if !t.active() {
		delete(s.tenants, t.name)
	}
}

// register records the job; callers hold s.mu.
func (s *Scheduler) register(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.met.jobsSubmitted.Add(1)
	s.evictLocked()
}

// retainLocked charges a job that has just ended with the cells it
// holds, which no longer change, and, when it finished done, makes it the
// job that serves its key. Callers hold s.mu and evict afterwards.
func (s *Scheduler) retainLocked(job *Job) {
	v := job.View()
	s.retainedCells += v.CellsDone
	if v.Status == StatusDone {
		s.results[job.key] = job
	}
}

// evictLocked keeps the daemon's job registry bounded: while it holds
// more than retainJobs jobs, or its terminal jobs hold more than
// retainCeilings × MaxCells cells, terminal jobs are dropped oldest-first,
// and with them the keys they serve (a repeat then goes to the store, or
// runs again). Queued and running jobs are never evicted. Callers hold
// s.mu.
func (s *Scheduler) evictLocked() {
	over := func() bool {
		return len(s.jobs) > retainJobs || s.retainedCells > retainCeilings*s.cfg.MaxCells
	}
	if !over() {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if over() && j.Status().terminal() {
			s.evictedSpanDrops += j.tr.Dropped()
			s.retainedCells -= j.View().CellsDone
			if s.results[j.key] == j {
				delete(s.results, j.key)
			}
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// spanDropsLocked sums span drops across every retained traced job plus
// the evicted carry-over; callers hold s.mu.
func (s *Scheduler) spanDropsLocked() uint64 {
	spans := s.evictedSpanDrops
	for _, j := range s.jobs {
		spans += j.tr.Dropped()
	}
	return spans
}

// Get resolves a job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every registered job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel aborts a queued or running job. Cancelling a queued job frees
// its queue slot and quota charge immediately. Cancelling an unknown job
// is an error; cancelling a terminal one is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("icegate: unknown job %q", id)
	}
	if s.cancelLocked(j) {
		s.met.jobsCancelled.Add(1)
	}
	return nil
}

func (s *Scheduler) executor() {
	defer s.wg.Done()
	// Each executor owns one reduce accumulator, reused across its jobs
	// so steady-state serving reallocates no per-metric buffers.
	sum := fleet.NewSummary()
	for {
		s.mu.Lock()
		var job *Job
		for {
			if job = s.popLocked(); job != nil {
				break
			}
			if s.closed && s.queuedTotal == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.runJob(job, sum)
	}
}

// runJob executes one admitted job end to end.
func (s *Scheduler) runJob(job *Job, sum *fleet.Summary) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.start(cancel) {
		return // cancelled while queued, which released it
	}
	if s.hooks.jobRunning != nil {
		s.hooks.jobRunning(job)
	}

	var table string
	var err error
	if job.Req.Scenario != "" {
		table, err = s.runScenario(ctx, job, sum)
	} else {
		table, err = s.runExperiment(ctx, job)
	}

	switch {
	case ctx.Err() != nil:
		s.finishRun(job, StatusCancelled, "", ctx.Err().Error())
	case err != nil:
		s.met.jobsFailed.Add(1)
		s.finishRun(job, StatusFailed, "", err.Error())
	default:
		s.storePut(job, table)
		s.met.jobsDone.Add(1)
		s.finishRun(job, StatusDone, table, "")
	}
}

// finishRun moves a job its executor ran to a terminal state, releasing
// its resources first, and retains it.
func (s *Scheduler) finishRun(job *Job, status Status, table, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(job)
	job.finish(status, table, errMsg, false)
	s.retainLocked(job)
	s.evictLocked()
}

// runScenario executes a fleet ensemble, streaming each cell as it lands
// and reducing into the executor's pooled summary.
func (s *Scheduler) runScenario(ctx context.Context, job *Job, sum *fleet.Summary) (string, error) {
	req := job.Req
	build := job.run.Child("build spec")
	spec, err := fleet.Build(req.Scenario, fleet.Params{
		Seed:     req.Seed,
		Cells:    req.Cells,
		Duration: req.duration(),
		Knobs:    req.Knobs,
	})
	build.End(icescope.StrAttr("scenario", req.Scenario))
	if err != nil {
		return "", err
	}
	results, err := s.runner(job).RunContext(ctx, spec, func(r fleet.Result) {
		cr := CellResult{Index: r.Cell.Index, Seed: r.Cell.Seed, Metrics: r.Metrics}
		if r.Err != nil {
			cr.Err = r.Err.Error()
		}
		job.deliver(cr)
		s.met.cellsDone.Inc()
		s.met.simEvents.Add(r.Events)
		s.met.wireBytes.Add(r.WireBytes)
		s.met.wireEncodeNS.Add(r.WireEncodeNS)
	})
	if err != nil {
		return "", err
	}
	merge := job.run.Child("merge")
	table := renderScenarioTable(req, results, sum)
	merge.End(icescope.IntAttr("cells", len(results)))
	return table, nil
}

// runner runs one job's cells: on the scheduler's shared pool, through
// its backend's engine, under the job's span, into the gateway's
// histograms.
func (s *Scheduler) runner(job *Job) fleet.Runner {
	return fleet.Runner{Pool: s.pool, Engine: s.cfg.Backend.Engine(), Span: job.run, Obs: s.met.fleetObs}
}

// renderScenarioTable is the canonical rendering of a scenario job: the
// request identity line plus the fleet's reduced summary. Byte-identical
// result sets render to byte-identical tables (the cache contract). sum
// may be nil for one-shot callers; a pooled summary is reset first.
func renderScenarioTable(req Request, results []fleet.Result, sum *fleet.Summary) string {
	if sum == nil {
		sum = fleet.NewSummary()
	} else {
		sum.Reset()
	}
	sum.Add(results)
	return fmt.Sprintf("scenario %s seed=%d cells=%d\n%s",
		req.Scenario, req.Seed, req.Cells, sum)
}

// runExperiment renders one catalog table. Experiment runners are not
// interruptible mid-run; cancellation is honored between admission and
// start, and the result of a run that raced cancellation is discarded by
// runJob's ctx check.
func (s *Scheduler) runExperiment(ctx context.Context, job *Job) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	tab, err := experiments.Run(job.Req.Exp, experiments.Options{
		Seed:  job.Req.Seed,
		Cells: job.Req.Cells,
		Fleet: s.runner(job),
	})
	if err != nil {
		return "", err
	}
	return tab.String(), nil
}
