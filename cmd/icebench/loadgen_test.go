package main

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/icegate"
	"repro/internal/icescope"
)

// fakeClock only moves when told to; SleepUntil jumps to the wake time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// stallTarget answers instantly in fake time, except that submitting
// the request with seed stallSeed stalls the sender for stall.
type stallTarget struct {
	clk       *fakeClock
	stallSeed int64
	stall     time.Duration

	mu   sync.Mutex
	reqs map[string]icegate.Request
}

func (s *stallTarget) submit(req icegate.Request) (string, error) {
	if req.Seed == s.stallSeed {
		s.clk.advance(s.stall)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("job-%d", len(s.reqs))
	s.reqs[id] = req
	return id, nil
}

func (s *stallTarget) wait(string) error { return nil }

func (s *stallTarget) result(id string) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tableHeader(s.reqs[id]), false, nil
}

func (s *stallTarget) traceText(string) (string, error) { return "", nil }

// A stalled open-loop sender delays every request due during the stall;
// each of them is charged the delay, because latency counts from the due
// time, and the sender's lag shows how late it ran.
func TestOpenLoopChargesStallToDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	tgt := &stallTarget{clk: clk, stallSeed: 100, stall: 50 * time.Millisecond, reqs: map[string]icegate.Request{}}
	var ops []op
	for i, due := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond} {
		ops = append(ops, op{idx: i, req: pcaRequest(100 + int64(i)), class: classComputed, due: due})
	}
	recs := openLoop(clk, tgt, clk.Now(), ops, icescope.Span{})

	wantLag := []time.Duration{0, 40 * time.Millisecond, 30 * time.Millisecond}
	wantLat := []time.Duration{50 * time.Millisecond, 40 * time.Millisecond, 30 * time.Millisecond}
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.lag != wantLag[i] || r.lat != wantLat[i] {
			t.Errorf("request %d: lag %v latency %v, want lag %v latency %v", i, r.lag, r.lat, wantLag[i], wantLat[i])
		}
	}
}
