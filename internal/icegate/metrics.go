package icegate

import (
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// gatewayMetrics is the gateway's icescope registry plus the typed
// handles the serving paths update. They describe the gateway process
// (wall-clock throughput, queue pressure, cache efficiency) and are
// deliberately separate from simulation results, which stay
// deterministic. Derived gauges (uptime, rates, queue depth) are
// GaugeFuncs evaluated at scrape time, so the write side stays
// counters-only and allocation-free.
type gatewayMetrics struct {
	reg   *icescope.Registry
	start time.Time

	jobsSubmitted *icescope.Counter
	jobsRejected  *icescope.Counter
	jobsDone      *icescope.Counter
	jobsFailed    *icescope.Counter
	jobsCancelled *icescope.Counter

	// Per-tenant serving accounting: enqueue/reject counters keyed by
	// tenant, and the per-lane queue-wait distribution that makes "batch
	// floods don't starve interactive" a measurable claim.
	tenantSubmitted *icescope.CounterVec
	tenantRejected  *icescope.CounterVec
	queueWait       *icescope.HistogramVec

	cellsDone    *icescope.Counter
	simEvents    *icescope.Counter // kernel events executed by scenario cells
	wireBytes    *icescope.Counter // envelope bytes encoded by scenario cells
	wireEncodeNS *icescope.Counter // sampled envelope-encode wall time, ns

	// fleetObs is handed to every job's fleet.Runner: cell execution
	// latency and dispatch-to-slot-pickup queue wait, as histograms.
	fleetObs *fleet.Obs
}

// newGatewayMetrics builds the registry against a constructed scheduler
// (the GaugeFuncs read its queue and cache at scrape time).
func newGatewayMetrics(s *Scheduler) *gatewayMetrics {
	m := &gatewayMetrics{reg: icescope.NewRegistry(), start: time.Now()}
	r := m.reg

	r.GaugeFunc("icegate_uptime_seconds", "Seconds since the gateway started.",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("icegate_queue_depth", "Jobs admitted but not yet picked up by an executor.",
		func() float64 { return float64(s.QueueDepth()) })
	r.GaugeFunc("icegate_queue_capacity", "Admission queue size.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("icegate_executors", "Concurrent job executors.",
		func() float64 { return float64(s.cfg.Executors) })
	r.GaugeFunc("icegate_fleet_workers", "Local fleet cells the gateway computes at once, across all jobs.",
		func() float64 { return float64(s.cfg.Workers) })

	m.jobsSubmitted = r.Counter("icegate_jobs_submitted_total", "Jobs admitted (including cache hits).")
	m.jobsRejected = r.Counter("icegate_jobs_rejected_total", "Jobs rejected by admission control.")
	m.jobsDone = r.Counter("icegate_jobs_done_total", "Jobs finished successfully.")
	m.jobsFailed = r.Counter("icegate_jobs_failed_total", "Jobs that ended in failure.")
	m.jobsCancelled = r.Counter("icegate_jobs_cancelled_total", "Jobs cancelled by clients or shutdown.")

	r.GaugeFunc("icegate_cache_entries", "Cache keys that retained jobs can serve.",
		func() float64 { _, _, entries, _ := s.cacheStats(); return float64(entries) })
	r.GaugeFunc("icegate_cache_hits_total", "Result-cache hits.",
		func() float64 { hits, _, _, _ := s.cacheStats(); return float64(hits) })
	r.GaugeFunc("icegate_cache_misses_total", "Result-cache misses.",
		func() float64 { _, misses, _, _ := s.cacheStats(); return float64(misses) })
	r.GaugeFunc("icegate_cache_hit_rate", "Fraction of lookups served from cache.",
		func() float64 {
			hits, misses, _, _ := s.cacheStats()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	r.GaugeFunc("icegate_retained_cells", "Cells held by retained terminal jobs, bounded at 8 x the per-job cell ceiling.",
		func() float64 { _, _, _, cells := s.cacheStats(); return float64(cells) })

	// Trace health: spans silently discarded over per-trace caps across
	// all traced jobs, including those already evicted from the
	// registry. A nonzero value means a span tree in /trace or /events
	// is incomplete.
	r.GaugeFunc("icescope_spans_dropped_total", "Spans discarded over per-trace caps, all traced jobs.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.spanDropsLocked())
		})

	m.cellsDone = r.Counter("icegate_cells_done_total", "Fleet cells completed.")
	r.GaugeFunc("icegate_cells_per_second", "Cells completed per second of uptime.",
		func() float64 { return m.rate(float64(m.cellsDone.Value())) })
	// True engine throughput: kernel events actually executed (cache hits
	// replay stored results and so add nothing — by design).
	m.simEvents = r.Counter("icegate_sim_events_total", "Kernel events executed by scenario cells.")
	r.GaugeFunc("icegate_sim_events_per_second", "Kernel events executed per second of uptime.",
		func() float64 { return m.rate(float64(m.simEvents.Value())) })
	// Wire-codec accounting: bytes the cells' ICE envelopes encoded to,
	// and the (sampled) wall time spent encoding them.
	m.wireBytes = r.Counter("icegate_wire_bytes_total", "Envelope bytes encoded by scenario cells.")
	m.wireEncodeNS = r.Counter("icegate_wire_encode_ns", "Sampled envelope-encode wall time, nanoseconds.")

	// Multi-tenant scheduling: per-tenant counters, live per-tenant
	// gauges refreshed at scrape time from scheduler state, and the
	// per-lane queue-wait histogram.
	m.tenantSubmitted = r.CounterVec("icegate_tenant_jobs_submitted_total",
		"Jobs enqueued, by tenant.", "tenant")
	m.tenantRejected = r.CounterVec("icegate_tenant_jobs_rejected_total",
		"Jobs rejected by admission control, by tenant.", "tenant")
	m.queueWait = r.HistogramVec("icegate_queue_wait_seconds",
		"Job wait between admission and executor pickup, by lane.", "lane", nil)
	tenantQueued := r.GaugeVec("icegate_tenant_queued", "Jobs queued, by tenant.", "tenant")
	tenantRunning := r.GaugeVec("icegate_tenant_running", "Jobs running, by tenant.", "tenant")
	tenantCells := r.GaugeVec("icegate_tenant_cells_in_flight",
		"Cells in flight across queued and running jobs, by tenant.", "tenant")
	var collectMu sync.Mutex // Expose runs hooks outside the registry lock
	exported := map[string]bool{}
	r.OnCollect(func() {
		type snap struct{ queued, running, cells int }
		s.mu.Lock()
		cur := make(map[string]snap, len(s.tenants))
		for name, t := range s.tenants {
			cur[name] = snap{t.queued, t.running, t.cells}
		}
		s.mu.Unlock()
		collectMu.Lock()
		defer collectMu.Unlock()
		for name, v := range cur {
			tenantQueued.With(name).Set(float64(v.queued))
			tenantRunning.With(name).Set(float64(v.running))
			tenantCells.With(name).Set(float64(v.cells))
			exported[name] = true
		}
		// Tenants reaped since the last scrape leave the exposition too:
		// the gauge family tracks live scheduler state, not history.
		for name := range exported {
			if _, live := cur[name]; !live {
				tenantQueued.Delete(name)
				tenantRunning.Delete(name)
				tenantCells.Delete(name)
				delete(exported, name)
			}
		}
	})

	// Disk result store (the level below the retained jobs), when
	// configured. Gauge-typed running totals, matching the cache family
	// above: scrape-time reads of the store's own counters.
	if s.store != nil {
		st := s.store
		r.GaugeFunc("icegate_store_entries", "Disk-store entries resident.",
			func() float64 { return float64(st.Stats().Entries) })
		r.GaugeFunc("icegate_store_bytes", "Disk-store bytes resident.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("icegate_store_hits_total", "Disk-store hits.",
			func() float64 { return float64(st.Stats().Hits) })
		r.GaugeFunc("icegate_store_misses_total", "Disk-store misses.",
			func() float64 { return float64(st.Stats().Misses) })
		r.GaugeFunc("icegate_store_puts_total", "Disk-store writes committed.",
			func() float64 { return float64(st.Stats().Puts) })
		r.GaugeFunc("icegate_store_evictions_total", "Disk-store entries evicted by the byte budget.",
			func() float64 { return float64(st.Stats().Evictions) })
		r.GaugeFunc("icegate_store_quarantined_total", "Disk-store entries quarantined as corrupt.",
			func() float64 { return float64(st.Stats().Quarantined) })
	}

	m.fleetObs = &fleet.Obs{
		CellSeconds: r.Histogram("icegate_cell_seconds",
			"Per-cell execution latency (build + run).", nil),
		QueueWaitSeconds: r.Histogram("icegate_cell_queue_wait_seconds",
			"Per-cell wait between fleet dispatch and a pool slot picking it up.", nil),
	}

	// Execution backend: which one is active (a one-hot labeled gauge).
	r.GaugeVec("icegate_backend", "Active execution backend.", "name").
		With(s.cfg.Backend.Name()).Set(1)
	return m
}

// cacheStats reads the result-cache counters, the keys that retained
// jobs serve and the cells they hold.
func (s *Scheduler) cacheStats() (hits, misses uint64, entries, cells int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, len(s.results), s.retainedCells
}

// rate divides a running total by uptime.
func (m *gatewayMetrics) rate(total float64) float64 {
	up := time.Since(m.start).Seconds()
	if up <= 0 {
		return 0
	}
	return total / up
}

// MetricsText emits the Prometheus text exposition of the gateway's
// state — the /metrics body, exported for embedders and tests.
func (s *Scheduler) MetricsText() string { return s.renderMetrics() }

// renderMetrics renders the registry, then appends whatever the backend
// exports (the mesh coordinator reports node liveness, shard retries,
// and per-node throughput here).
func (s *Scheduler) renderMetrics() string {
	text := s.met.reg.Expose()
	if bm, ok := s.cfg.Backend.(backendMetrics); ok {
		text += bm.MetricsText()
	}
	return text
}
