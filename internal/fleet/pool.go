package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Pool is a fixed set of cell slots that every run naming it shares. A
// cell runs on its own goroutine while it holds a slot, so a pool of n
// slots never runs more than n cells at once, however many runs (jobs,
// shards, tables) draw on it. A pool owns no goroutines and needs no
// Close. Determinism is untouched: cells remain pure functions of their
// index, and each run collects its results by index.
type Pool struct {
	slots chan *slot
}

// slot is one unit of pool capacity. Only the cell holding a slot
// touches its fields, so none of them needs a lock.
type slot struct {
	id      int
	scratch Scratch // reused by every cell that holds the slot
}

// NewPool returns a pool of workers slots; <=0 means 1.
func NewPool(workers int) *Pool {
	workers = max(workers, 1)
	p := &Pool{slots: make(chan *slot, workers)}
	for i := range workers {
		p.slots <- &slot{id: i}
	}
	return p
}

// group is one spec's share of a local run: cells [start, start+len(out))
// of spec, whose results land in out by position.
type group struct {
	spec  *Spec
	start int
	out   []Result
}

// RunRange executes the contiguous cell range [start, end) of spec on
// the runner's pool — the primitive a distributed node executes its
// shards with. The range always runs locally (Engine is ignored).
// Results carry their global ensemble index and seed, exactly as the
// same cells would in a full run, so merging ranges by index reproduces
// Run's result slice byte for byte. Cancellation and delivery behave as
// in RunAllContext, and the returned slice is in range order. A spec or
// range that cannot run returns no results, only the error.
func (r Runner) RunRange(ctx context.Context, spec Spec, start, end int, onCell func(Result)) ([]Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if start < 0 || end < start || end > spec.Cells {
		return nil, fmt.Errorf("fleet: range [%d,%d) outside spec %q (%d cells)", start, end, spec.Name, spec.Cells)
	}
	out := make([]Result, end-start)
	errs := r.runLocal(ctx, []group{{spec: &spec, start: start, out: out}}, serialize(onCell))
	return out, errors.Join(errs...)
}

// runLocal is the one dispatch loop: it takes a slot for each cell of
// groups in order, runs and delivers the cell on its own goroutine while
// it holds the slot, and waits for all of them. Once ctx is done, no
// further cell is dispatched; each skipped cell gets ctx.Err() and its
// derived seed, so partial result sets stay identifiable. It returns the
// per-cell errors plus one error counting the skipped cells.
func (r Runner) runLocal(ctx context.Context, groups []group, deliver func(Result)) []error {
	pool := r.Pool
	if pool == nil {
		pool = NewPool(r.Workers)
	}
	var wg sync.WaitGroup
	var skipErr error // set once ctx is done; every later cell is skipped
	skipped := 0
	for _, g := range groups {
		for k := range g.out {
			i := g.start + k
			if skipErr == nil {
				enq := r.stamp()
				select {
				case sl := <-pool.slots:
					r.observeWait(enq)
					wg.Add(1)
					go func(s *Spec, res *Result) {
						defer wg.Done()
						*res = r.runCell(*s, i, &sl.scratch, int32(sl.id+1))
						deliver(*res)
						pool.slots <- sl
					}(g.spec, &g.out[k])
					continue
				case <-ctx.Done():
					skipErr = ctx.Err()
				}
			}
			g.out[k] = Result{Cell: Cell{Index: i, Seed: g.spec.seedFor(i)}, Err: skipErr}
			skipped++
		}
	}
	wg.Wait()

	var errs []error
	for _, g := range groups {
		for _, res := range g.out {
			if res.Err != nil && !errors.Is(res.Err, ctx.Err()) {
				errs = append(errs, fmt.Errorf("%s cell %d: %w", g.spec.Name, res.Cell.Index, res.Err))
			}
		}
	}
	if skipped > 0 {
		errs = append(errs, fmt.Errorf("fleet: %d cells skipped: %w", skipped, skipErr))
	}
	return errs
}

// serialize wraps onCell so that concurrent deliveries never overlap;
// a nil onCell delivers nowhere.
func serialize(onCell func(Result)) func(Result) {
	if onCell == nil {
		return func(Result) {}
	}
	var mu sync.Mutex
	return func(res Result) {
		mu.Lock()
		defer mu.Unlock()
		onCell(res)
	}
}
