package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/icescope"
	"repro/internal/sim"
)

// gauge tracks how many cells run at once and the most it ever saw.
type gauge struct{ now, peak atomic.Int64 }

func (g *gauge) enter() int64 {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	return n
}

func (g *gauge) leave() { g.now.Add(-1) }

// gaugedSpec is mathSpec whose cells also report to g. Each cell holds
// on until a second cell is running (or 50 ms pass), so a pool that
// admits more cells than it has slots shows it in g.peak.
func gaugedSpec(name string, seed int64, cells int, g *gauge) Spec {
	spec := mathSpec(name, seed, cells)
	run := spec.Run
	spec.Run = func(c Cell) (Metrics, error) {
		g.enter()
		defer g.leave()
		for deadline := time.Now().Add(50 * time.Millisecond); g.now.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		return run(c)
	}
	return spec
}

// Runs that share one pool share its bound: three concurrent runs on a
// pool of two slots never run more than two cells at once, and each
// run's results equal the same spec run alone. Each run records into
// its own trace, so the slots switch traces between runs.
func TestPoolBoundsConcurrentRuns(t *testing.T) {
	var g gauge
	pool := NewPool(2)
	specs := []Spec{
		gaugedSpec("pool-a", 1, 5, &g),
		gaugedSpec("pool-b", 2, 4, &g),
		gaugedSpec("pool-c", 3, 6, &g),
	}
	got := make([][]Result, len(specs))
	traces := make([]*icescope.Trace, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		traces[i] = icescope.NewTrace(spec.Name)
		root := traces[i].Start(icescope.Span{}, "run")
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Runner{Pool: pool, Span: root}.RunContext(context.Background(), spec, nil)
			if err != nil {
				t.Errorf("%s: %v", spec.Name, err)
			}
			got[i] = res
		}()
	}
	wg.Wait()
	if peak := g.peak.Load(); peak != 2 {
		t.Fatalf("peak concurrent cells = %d on a 2-slot pool, want 2", peak)
	}
	for i, spec := range specs {
		if n := strings.Count(traces[i].TextString(), "cell run"); n != spec.Cells {
			t.Errorf("%s trace holds %d cell spans, want %d", spec.Name, n, spec.Cells)
		}
	}
	for i, spec := range specs {
		solo, err := Runner{}.Run(mathSpec(spec.Name, spec.Seed, spec.Cells))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], solo) {
			t.Errorf("%s on a shared pool diverged from its solo run:\n%+v\nvs\n%+v", spec.Name, got[i], solo)
		}
	}
}

// An ensemble executed one fine range at a time must merge to exactly
// what one Run produces — the node-side contract that lets shard size
// drop to 1 without touching result bytes.
func TestRunRangeFineRangesMatchRun(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 42, Cells: 6, Duration: 10 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 3}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Pool: NewPool(3)}
	got := make([]Result, spec.Cells)
	for start := 0; start < spec.Cells; start++ {
		rs, err := runner.RunRange(context.Background(), spec, start, start+1, nil)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", start, start+1, err)
		}
		got[start] = rs[0]
	}
	if stable(got) != stable(want) {
		t.Fatalf("fine ranges diverged from Run:\n%+v\nvs\n%+v", got, want)
	}
}

// Concurrent ranges share the pool safely and still merge
// byte-identically — the shape a node executes when its credit window
// holds several shards at once.
func TestRunRangeConcurrentRangesMatchRun(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 7, Cells: 8, Duration: 10 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Pool: NewPool(2)}
	got := make([]Result, spec.Cells)
	var wg sync.WaitGroup
	for lo := 0; lo < spec.Cells; lo += 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := runner.RunRange(context.Background(), spec, lo, lo+2, nil)
			if err != nil {
				t.Errorf("range [%d,%d): %v", lo, lo+2, err)
				return
			}
			copy(got[lo:], rs)
		}()
	}
	wg.Wait()
	if stable(got) != stable(want) {
		t.Fatalf("concurrent ranges diverged from Run:\n%+v\nvs\n%+v", got, want)
	}
}

// stable renders results for comparison with the sampled wall-clock
// encode-time counter zeroed — it is timing, not table content (reduced
// tables never include it).
func stable(rs []Result) string {
	cp := append([]Result(nil), rs...)
	for i := range cp {
		cp[i].WireEncodeNS = 0
	}
	return fmt.Sprintf("%+v", cp)
}

// A range outside the spec, or a spec with no body, fails loudly
// instead of running anything.
func TestRunRangeRejectsBadRange(t *testing.T) {
	spec := mathSpec("range", 1, 2)
	for _, r := range [][2]int{{0, 3}, {-1, 1}, {2, 1}} {
		if _, err := (Runner{}).RunRange(context.Background(), spec, r[0], r[1], nil); err == nil {
			t.Errorf("RunRange [%d,%d) on a 2-cell spec succeeded", r[0], r[1])
		}
	}
	if _, err := (Runner{}).RunRange(context.Background(), Spec{Name: "empty", Cells: 1}, 0, 1, nil); err == nil {
		t.Error("RunRange of a spec without Run succeeded")
	}
}

// Cell spans use at most one Chrome lane per pool slot: a traced run's
// cell spans land on no more lanes than the pool has slots, not one per
// cell.
func TestPoolTraceLanesPerSlot(t *testing.T) {
	tr := icescope.NewTrace("run")
	root := tr.Start(icescope.Span{}, "run")
	spec := mathSpec("spans", 5, 12)
	if _, err := (Runner{Pool: NewPool(2), Span: root}).Run(spec); err != nil {
		t.Fatal(err)
	}
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	cells, tids := 0, map[int32]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Name == "cell run" {
			cells++
			tids[ev.TID] = true
		}
	}
	if cells != spec.Cells {
		t.Fatalf("trace holds %d cell spans, want %d", cells, spec.Cells)
	}
	if len(tids) > 2 {
		t.Fatalf("cell spans landed on %d lanes on a 2-slot pool, want at most 2", len(tids))
	}
}
