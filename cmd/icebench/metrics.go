package main

import (
	"fmt"
	"io"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies are the latencies, in ms, of the class the latency metrics
// report: computed requests. In ward-open these are the interactive
// computed jobs; batch jobs are background load whose lane promises no
// latency, and cache hits are a different distribution.
func latencies(recs []record) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil && r.op.class == classComputed {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// succeeded counts the requests that succeeded and the cells they
// simulated; cache hits simulate none.
func succeeded(recs []record) (jobs, cells int) {
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		jobs++
		if !r.cached {
			cells += r.op.req.Cells
		}
	}
	return jobs, cells
}

// endToEnd computes the metrics a user of the gateway sees.
func endToEnd(recs []record, elapsed time.Duration, rssMB float64, setups []float64) map[string]metric {
	jobs, cells := succeeded(recs)
	secs := elapsed.Seconds()
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"jobs_per_s":         {float64(jobs) / secs, "1/s"},
		"cells_per_s":        {float64(cells) / secs, "1/s"},
		"job_latency_p50_ms": {percentile(latencies(recs), 50), "ms"},
		"peak_rss_mb":        {rssMB, "MB"},
	}
}

// describeLatency prints the latency sample size and the highest
// percentile it supports, which the fixed-name metrics do not show.
func describeLatency(log io.Writer, workload string, recs []record) {
	lat := latencies(recs)
	fmt.Fprintf(log, "%s: %d computed jobs, p50 %.3f ms", workload, len(lat), percentile(lat, 50))
	if p, ok := highestPercentile(len(lat)); ok && p > 50 {
		fmt.Fprintf(log, ", p%g %.3f ms (the highest percentile with at least 10 samples beyond)", p, percentile(lat, p))
	}
	fmt.Fprintln(log)
	var hits []float64
	for _, r := range recs {
		if r.err == nil && r.cached {
			hits = append(hits, ms(r.lat))
		}
	}
	if len(hits) > 0 {
		fmt.Fprintf(log, "%s: %d cache hits, p50 %.3f ms\n", workload, len(hits), percentile(hits, 50))
	}
}

// windowLayers adds the per-layer metrics the window itself yields: how
// late the sender ran, the process's CPU time (cpu) per successful job,
// the gateway's HTTP calls, the deltas of its public /metrics over the
// window, and the self time of the traced jobs.
func windowLayers(m map[string]metric, recs []record, cpu time.Duration, d promSample) error {
	var lag, submit, fetch, tracedLat, untracedLat []float64
	self := map[string]float64{}
	for _, r := range recs {
		lag = append(lag, ms(r.lag))
		if r.err != nil {
			continue
		}
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		if r.op.class != classComputed {
			continue
		}
		if r.op.req.Trace {
			tracedLat = append(tracedLat, ms(r.lat))
			if err := addSelfTimes(r.trace, self); err != nil {
				return fmt.Errorf("request %d: %w", r.op.idx, err)
			}
		} else {
			untracedLat = append(untracedLat, ms(r.lat))
		}
	}
	m["loadgen.lag_ms_p95"] = metric{percentile(lag, 95), "ms"}
	m["loadgen.job_latency_p95_ms"] = metric{percentile(untracedLat, 95), "ms"}
	jobs, _ := succeeded(recs)
	m["process.cpu_ms_per_job"] = metric{ms(cpu) / float64(max(jobs, 1)), "ms"}
	m["icegate.submit_ms_p50"] = metric{percentile(submit, 50), "ms"}
	m["icegate.result_ms_p50"] = metric{percentile(fetch, 50), "ms"}
	for _, lane := range []string{"interactive", "batch"} {
		mean := d.histMean("icegate_queue_wait_seconds", `lane="`+lane+`"`)
		m["icegate.queue_wait_ms_mean."+lane] = metric{mean * 1000, "ms"}
	}
	lookups := d["icegate_cache_hits_total"] + d["icegate_cache_misses_total"]
	m["icegate.cache_hit_ratio"] = metric{ratio(d["icegate_cache_hits_total"], lookups), "ratio"}
	m["icegate.rejected_ratio"] = metric{ratio(d["icegate_jobs_rejected_total"],
		d["icegate_jobs_rejected_total"]+d["icegate_jobs_submitted_total"]), "ratio"}

	total := 0.0
	for _, v := range self {
		total += v
	}
	for _, f := range spanFamilies {
		m["trace.self_share."+f] = metric{ratio(self[f], total), "ratio"}
	}
	m["trace.overhead_pct"] = metric{100 * (ratio(percentile(tracedLat, 50), percentile(untracedLat, 50)) - 1), "%"}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
