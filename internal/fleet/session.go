package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/icescope"
)

// Session pins one built spec to a worker pool that stays alive across
// RunRange calls. A distributed node keeps one per job: the spec is
// built once per (job, node) rather than once per shard, every cell
// runs through the spec's Run, and each worker goroutine keeps one
// Scratch for the session's lifetime.
//
// Concurrent RunRange calls are safe and share the pool — cells from
// overlapping calls interleave across the same workers, bounding total
// parallelism at the session's worker count no matter how many ranges
// are in flight. Determinism is untouched: cells remain pure functions
// of their index, and each call's results are collected by index.
type Session struct {
	r    Runner
	spec Spec
	jobs chan sessionCell
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// sessionCell is one cell dispatched to the session pool; exec runs it
// on the worker's long-lived scratch and lock-free trace buffer.
type sessionCell struct {
	ci   int
	exec func(ci int, scratch *Scratch, buf *icescope.Buffer)
	enq  time.Time // dispatch stamp; zero unless queue wait is observed
}

// NewSession validates the spec and starts the runner's worker pool
// against it. The caller must Close the session (with no RunRange in
// flight) to release the workers. Engine, if set on the runner, is
// ignored: a session is always local execution.
func (r Runner) NewSession(spec Spec) (*Session, error) {
	if spec.Run == nil {
		return nil, fmt.Errorf("fleet: spec %q has no Run", spec.Name)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = 1
	}
	s := &Session{r: r, spec: spec, jobs: make(chan sessionCell)}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			scratch := &Scratch{} // lives as long as the session
			buf := r.Span.Trace().Buffer()
			for j := range s.jobs {
				r.observeWait(j.enq)
				j.exec(j.ci, scratch, buf)
			}
		}()
	}
	return s, nil
}

// Spec returns the spec this session executes.
func (s *Session) Spec() Spec { return s.spec }

// RunRange executes the contiguous cell range [start, end) of the
// session's spec — the node-side primitive distributed engines are built
// from. Results carry their global ensemble index and seed, exactly as
// the same cells would in a full local run, so merging range results by
// index reproduces the local result slice byte for byte. onCell (when
// non-nil) is invoked serially per completed cell, cells not yet
// dispatched when ctx is cancelled are skipped with ctx.Err(), and the
// returned slice is in range order.
func (s *Session) RunRange(ctx context.Context, start, end int, onCell func(Result)) ([]Result, error) {
	if start < 0 || end < start || end > s.spec.Cells {
		return nil, fmt.Errorf("fleet: range [%d,%d) outside spec %q (%d cells)", start, end, s.spec.Name, s.spec.Cells)
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("fleet: session for %q is closed", s.spec.Name)
	}

	n := end - start
	out := make([]Result, n)
	var deliverMu sync.Mutex
	var done sync.WaitGroup
	exec := func(ci int, scratch *Scratch, buf *icescope.Buffer) {
		defer done.Done()
		res := s.r.runCell(s.spec, ci, scratch, buf)
		out[ci-start] = res
		if onCell != nil {
			deliverMu.Lock()
			onCell(res)
			deliverMu.Unlock()
		}
	}
	cancelled := 0
dispatch:
	for ci := start; ci < end; ci++ {
		done.Add(1)
		select {
		case s.jobs <- sessionCell{ci, exec, s.r.stamp()}:
		case <-ctx.Done():
			done.Done()
			for cj := ci; cj < end; cj++ {
				out[cj-start] = Result{Cell: Cell{Index: cj, Seed: s.spec.seedFor(cj)}, Err: ctx.Err()}
				cancelled++
			}
			break dispatch
		}
	}
	done.Wait()

	var errs []error
	for _, res := range out {
		if res.Err != nil && !errors.Is(res.Err, ctx.Err()) {
			errs = append(errs, fmt.Errorf("%s cell %d: %w", s.spec.Name, res.Cell.Index, res.Err))
		}
	}
	if cancelled > 0 {
		errs = append(errs, fmt.Errorf("fleet: %d cells skipped: %w", cancelled, ctx.Err()))
	}
	return out, errors.Join(errs...)
}

// Close stops the worker pool and waits for the workers to exit. It must
// not race an in-flight RunRange; calling Close twice is safe.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobs)
	s.wg.Wait()
}
