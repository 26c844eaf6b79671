package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/icegate"
	"repro/internal/icescope"
)

// target is what the load generator drives: the stack under test, or a
// fake in tests.
type target interface {
	submit(req icegate.Request) (id string, err error)
	wait(id string) error
	result(id string) (table string, cached bool, err error)
	traceText(id string) (string, error)
}

// clock is the load generator's time source, so the open-loop latency
// accounting can be tested against a stalled sender.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// record is the outcome of one request as the client saw it.
type record struct {
	op     op
	id     string
	dueAt  time.Time     // when the request was due: its schedule slot, or its client's previous completion
	lag    time.Duration // how late the sender ran: send time − dueAt
	submit time.Duration // POST round trip
	fetch  time.Duration // GET /result round trip
	lat    time.Duration // latency: from the send time (closed loop) or dueAt (open loop) to the result's last byte
	cached bool
	table  string
	trace  string // the job's span tree, when the request asked for tracing
	err    error
}

// send submits r's request, timing the POST. The span, when active,
// records the call in the benchmark's own trace.
func send(clk clock, t target, r *record, parent icescope.Span) bool {
	sp := parent.Child("submit")
	t0 := clk.Now()
	r.lag = t0.Sub(r.dueAt)
	r.id, r.err = t.submit(r.op.req)
	r.submit = clk.Now().Sub(t0)
	sp.End()
	return r.err == nil
}

// fetch reads r's result (and trace, if asked for), timing the GET, and
// sets the latency measured from `from`.
func fetch(clk clock, t target, r *record, from time.Time, parent icescope.Span) {
	sp := parent.Child("result")
	t0 := clk.Now()
	r.table, r.cached, r.err = t.result(r.id)
	end := clk.Now()
	sp.End()
	r.fetch = end.Sub(t0)
	r.lat = end.Sub(from)
	if r.err == nil && r.op.req.Trace {
		sp := parent.Child("trace")
		r.trace, r.err = t.traceText(r.id)
		sp.End()
	}
}

// closedLoop runs `clients` goroutines, each sending its next request
// only after the previous one's result arrived, until the deadline
// passes; requests already sent run to completion. next(i) is the i-th
// request of the sequence. Records come back in sequence order.
func closedLoop(clk clock, t target, start, deadline time.Time, next func(i int) op, parent icescope.Span) []record {
	var (
		mu   sync.Mutex
		recs []record
		seq  atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := start
			for clk.Now().Before(deadline) {
				r := record{op: next(int(seq.Add(1) - 1)), dueAt: prev}
				sp := parent.Child("request " + r.op.class)
				if send(clk, t, &r, sp) {
					sent := r.dueAt.Add(r.lag)
					ws := sp.Child("wait")
					r.err = t.wait(r.id)
					ws.End()
					if r.err == nil {
						fetch(clk, t, &r, sent, sp)
					}
				}
				sp.End()
				prev = clk.Now()
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	slices.SortFunc(recs, func(a, b record) int { return a.op.idx - b.op.idx })
	return recs
}

// openLoop sends ops at start+op.due from this goroutine, whether or not
// earlier requests have finished, and fetches results from one fetcher
// goroutine in completion order. A request's latency counts from its due
// time, so a stalled sender charges its delay to every request it held
// up. Completion is observed through per-job waiters, which send nothing.
func openLoop(clk clock, t target, start time.Time, ops []op, parent icescope.Span) []record {
	recs := make([]record, len(ops))
	spans := make([]icescope.Span, len(ops))
	ready := make(chan int, len(ops)) // every send fits, so waiters never block
	var fetcher, waiters sync.WaitGroup
	fetcher.Add(1)
	go func() {
		defer fetcher.Done()
		for i := range ready {
			fetch(clk, t, &recs[i], recs[i].dueAt, spans[i])
			spans[i].End()
		}
	}()
	for i, o := range ops {
		r := &recs[i]
		r.op, r.dueAt = o, start.Add(o.due)
		clk.SleepUntil(r.dueAt)
		spans[i] = parent.Child("request " + o.class)
		if !send(clk, t, r, spans[i]) {
			spans[i].End()
			continue
		}
		waiters.Add(1)
		go func(i int, id string) {
			defer waiters.Done()
			if err := t.wait(id); err != nil {
				recs[i].err = err
				spans[i].End()
				return
			}
			ready <- i
		}(i, r.id)
	}
	waiters.Wait()
	close(ready)
	fetcher.Wait()
	return recs
}
