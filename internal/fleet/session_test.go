package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// A session executing an ensemble one fine range at a time must merge to
// exactly what one local Run produces — the node-side contract that lets
// shard size drop to 1 without touching result bytes.
func TestSessionFineRangesMatchRun(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 42, Cells: 6, Duration: 10 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 3}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := Runner{Workers: 3}.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := make([]Result, spec.Cells)
	for start := 0; start < spec.Cells; start++ {
		rs, err := sess.RunRange(context.Background(), start, start+1, nil)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", start, start+1, err)
		}
		got[start] = rs[0]
	}
	if stable(got) != stable(want) {
		t.Fatalf("session fine ranges diverged from local run:\n%+v\nvs\n%+v", got, want)
	}
}

// Concurrent RunRange calls share the session pool safely and still
// merge byte-identically — the shape a node executes when its credit
// window holds several shards at once.
func TestSessionConcurrentRangesMatchRun(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 7, Cells: 8, Duration: 10 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Runner{Workers: 2}.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := make([]Result, spec.Cells)
	var wg sync.WaitGroup
	for start := 0; start < spec.Cells; start += 2 {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			rs, err := sess.RunRange(context.Background(), lo, lo+2, nil)
			if err != nil {
				t.Errorf("range [%d,%d): %v", lo, lo+2, err)
				return
			}
			copy(got[lo:], rs)
		}(start)
	}
	wg.Wait()
	if stable(got) != stable(want) {
		t.Fatalf("concurrent session ranges diverged from local run:\n%+v\nvs\n%+v", got, want)
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

// Range validation and post-Close behavior fail loudly instead of
// wedging the pool.
func TestSessionRejectsBadRangeAndClosed(t *testing.T) {
	spec, err := Build(ScenarioPCASupervised, Params{Seed: 1, Cells: 2, Duration: 5 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Runner{}.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunRange(context.Background(), 0, 3, nil); err == nil {
		t.Error("out-of-range RunRange succeeded")
	}
	sess.Close()
	sess.Close() // double Close is safe
	if _, err := sess.RunRange(context.Background(), 0, 1, nil); err == nil {
		t.Error("RunRange on closed session succeeded")
	}
}

// The probe scenario's pacing is observability-grade only: rtt knobs
// change wall time, never table bytes.
func TestTeleICUProbePacingIsByteInvisible(t *testing.T) {
	base := Params{Seed: 11, Cells: 3}
	paced := Params{Seed: 11, Cells: 3, Knobs: map[string]float64{"rtt_ms": 2, "jitter": 0.5}}
	specA, err := Build(ScenarioTeleICUProbe, base)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := Build(ScenarioTeleICUProbe, paced)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Runner{Workers: 2}.Run(specA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Runner{Workers: 2}.Run(specB)
	if err != nil {
		t.Fatal(err)
	}
	if stable(ra) != stable(rb) {
		t.Fatalf("rtt pacing changed table bytes:\n%+v\nvs\n%+v", ra, rb)
	}
}
