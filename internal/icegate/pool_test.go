package icegate

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
)

// cellGauge tracks how many cells run at once and the most it ever saw.
type cellGauge struct{ now, peak atomic.Int64 }

var cellGauges sync.Map // "group" knob -> *cellGauge

var gaugeGroups atomic.Int64 // unique groups across -count=N reruns

func gaugeFor(group float64) *cellGauge {
	g, _ := cellGauges.LoadOrStore(group, &cellGauge{})
	return g.(*cellGauge)
}

// The tests register one more scenario whose cells report to the gauge
// of their "group" knob. Each cell holds on until three cells run at
// once (or 30 ms pass), so a gateway that runs more cells than its pool
// has slots shows it in the gauge's peak.
func init() {
	fleet.Register("test-gauged", func(p fleet.Params) fleet.Spec {
		g := gaugeFor(p.Knobs["group"])
		return fleet.Spec{
			Name:  "test-gauged",
			Seed:  p.Seed,
			Cells: p.Cells,
			Run: func(c fleet.Cell) (fleet.Metrics, error) {
				n := g.now.Add(1)
				defer g.now.Add(-1)
				for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
				}
				for deadline := time.Now().Add(30 * time.Millisecond); g.now.Load() < 3 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				return fleet.Metrics{"index": float64(c.Index)}, nil
			},
		}
	})
}

// -workers bounds the whole gateway: with two executors and two workers,
// two multi-cell jobs that run at the same time share one pool of two
// slots, so no more than two cells ever run at once.
func TestSchedulerPoolBoundsConcurrentJobs(t *testing.T) {
	s := NewScheduler(Config{QueueDepth: 4, Executors: 2, Workers: 2})
	t.Cleanup(s.Close)
	// Hold each job at its start until both run, so their cells overlap.
	var both sync.WaitGroup
	both.Add(2)
	s.hooks.jobRunning = func(*Job) { both.Done(); both.Wait() }

	group := float64(gaugeGroups.Add(1))
	var jobs []*Job
	for seed := int64(1); seed <= 2; seed++ {
		jobs = append(jobs, mustSubmit(t, s, Request{
			Scenario: "test-gauged", Seed: seed, Cells: 4,
			Knobs: map[string]float64{"group": group},
		}))
	}
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st != StatusDone {
			t.Fatalf("job %s ended %s", j.ID, st)
		}
	}
	if peak := gaugeFor(group).peak.Load(); peak != 2 {
		t.Fatalf("peak concurrent cells = %d across two jobs with Workers: 2, want 2", peak)
	}
}

// The gateway's cell histograms see every cell its jobs execute through
// the shared pool, across concurrent jobs, and nothing for a cache hit.
func TestGatewayCellHistogramsCountEveryCell(t *testing.T) {
	s := NewScheduler(Config{QueueDepth: 4, Executors: 2, Workers: 2})
	t.Cleanup(s.Close)
	reqs := []Request{
		{Scenario: fleet.ScenarioPCASupervised, Seed: 61, Cells: 3, DurationS: 120},
		{Scenario: fleet.ScenarioPCASupervised, Seed: 62, Cells: 2, DurationS: 120},
	}
	var jobs []*Job
	for _, req := range reqs {
		jobs = append(jobs, mustSubmit(t, s, req))
	}
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st != StatusDone {
			t.Fatalf("job %s ended %s", j.ID, st)
		}
	}
	hit := mustSubmit(t, s, reqs[0])
	if v := hit.View(); !v.Cached {
		t.Fatalf("resubmission not served from cache: %+v", v)
	}

	const ran = 5
	text := s.MetricsText()
	for _, name := range []string{"icegate_cell_seconds", "icegate_cell_queue_wait_seconds"} {
		if want := fmt.Sprintf("\n%s_count %d\n", name, ran); !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q: one observation per executed cell", strings.TrimSpace(want))
		}
	}
}
