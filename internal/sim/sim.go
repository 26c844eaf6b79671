// Package sim provides a deterministic discrete-event simulation kernel.
//
// All MCPS subsystems (devices, networks, patients, supervisors) run on a
// single virtual clock owned by a Kernel. Events are executed in strictly
// nondecreasing time order; ties are broken by insertion order so that a
// given seed always reproduces an identical trace.
//
// The kernel is built for the fleet's hot path: pending events live in a
// slot arena indexed by a binary heap of int32 slot numbers, freed slots
// are recycled through a free list, and the closure-free scheduling
// variants (AtFunc, AfterFunc) let steady-state models schedule and
// dispatch without a single heap allocation. Events are addressed by
// EventID — a slot number plus a generation counter — so canceling an
// event that already ran (and whose slot was recycled) is always a safe
// no-op. See DESIGN.md's "Performance model" for the allocation budget.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is an absolute instant on the virtual clock, in nanoseconds since
// the start of the simulation.
type Time int64

// Common virtual-time unit helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// FromSeconds converts fractional seconds to a Time offset.
func FromSeconds(s float64) Time {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return Time(s * float64(Second))
}

// EventID addresses one scheduled event: the arena slot number in the high
// 32 bits and the slot's generation in the low 32. The zero EventID is
// never issued and cancels to a no-op, so an unset field is safe to
// Cancel. Generations make stale IDs harmless: once an event runs, is
// canceled, or is swept, its slot's generation advances and every ID
// minted for the old occupant stops matching.
type EventID uint64

// slot is one arena entry. A slot is live while its event sits in the
// heap; on dispatch or sweep it returns to the free list with gen bumped.
type slot struct {
	at       Time
	seq      uint64 // tie-breaker: FIFO among same-time events
	fn       func(any)
	arg      any
	gen      uint32
	canceled bool
}

// ErrStopped is returned by Run when Stop was called before the horizon.
var ErrStopped = errors.New("sim: kernel stopped")

// Kernel owns the virtual clock and the pending-event queue.
// The zero value is not ready; use NewKernel.
type Kernel struct {
	now      Time
	slots    []slot
	heap     []int32 // slot indices ordered by (at, seq)
	free     []int32 // recycled slot indices
	canceled int     // canceled events still occupying heap entries
	seq      uint64
	stopped  bool
	running  bool
	// executed counts events dispatched since construction.
	executed uint64

	// ref, when non-nil, routes the queue through the original
	// container/heap-of-pointers implementation. Test-only: the
	// differential determinism suite runs whole scenarios on both
	// backends and asserts byte-identical tables.
	ref *refQueue
}

// NewKernel returns a kernel with the clock at 0.
func NewKernel() *Kernel {
	k := &Kernel{}
	if refQueueMode.Load() {
		k.ref = newRefQueue()
	}
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of live (scheduled, not canceled) events.
// Canceled events awaiting the lazy sweep are excluded, so ticker-heavy
// long runs no longer report phantom backlog.
func (k *Kernel) Pending() int {
	if k.ref != nil {
		return k.ref.pending()
	}
	return len(k.heap) - k.canceled
}

// Executed reports how many events have been dispatched.
func (k *Kernel) Executed() uint64 { return k.executed }

// heap ordering: earliest time first, FIFO among equals. seq is unique,
// so the order is total and independent of the heap's internal layout —
// which is what lets the arena kernel replace the pointer heap without
// perturbing a single table byte.
func (k *Kernel) less(a, b int32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	return sa.at < sb.at || (sa.at == sb.at && sa.seq < sb.seq)
}

func (k *Kernel) up(j int) {
	h := k.heap
	for j > 0 {
		i := (j - 1) / 2
		if !k.less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (k *Kernel) down(i int) {
	h := k.heap
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && k.less(h[r], h[j]) {
			j = r
		}
		if !k.less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// removeTop deletes heap[0], restoring the heap property.
func (k *Kernel) removeTop() {
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.down(0)
	}
}

// freeSlot recycles a slot: the generation advances (invalidating every
// outstanding ID for the old occupant) and the fn/arg references drop so
// the arena never pins dead callbacks.
func (k *Kernel) freeSlot(si int32) {
	s := &k.slots[si]
	s.gen++
	if s.gen == 0 { // generation wrapped; 0 is reserved for the invalid ID
		s.gen = 1
	}
	s.fn = nil
	s.arg = nil
	s.canceled = false
	k.free = append(k.free, si)
}

// AtFunc schedules fn(arg) at absolute time at without allocating: the
// event occupies a recycled arena slot and fn should be a package-level
// function (a closure would reintroduce the allocation this API exists to
// avoid). arg should be a pointer; boxing a non-pointer value may
// allocate. Scheduling in the past (before Now) panics: it would violate
// causality and always indicates a model bug.
func (k *Kernel) AtFunc(at Time, fn func(any), arg any) EventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	seq := k.seq
	k.seq++
	if k.ref != nil {
		return k.ref.push(at, seq, fn, arg)
	}
	var si int32
	if n := len(k.free) - 1; n >= 0 {
		si = k.free[n]
		k.free = k.free[:n]
	} else {
		k.slots = append(k.slots, slot{gen: 1})
		si = int32(len(k.slots) - 1)
	}
	s := &k.slots[si]
	s.at, s.seq, s.fn, s.arg = at, seq, fn, arg
	k.heap = append(k.heap, si)
	k.up(len(k.heap) - 1)
	return EventID(uint64(uint32(si))<<32 | uint64(s.gen))
}

// AfterFunc is AtFunc at Now()+d. Negative d is clamped to zero.
func (k *Kernel) AfterFunc(d time.Duration, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return k.AtFunc(k.now.Add(d), fn, arg)
}

// Cancel marks the identified event so the kernel skips it, reporting
// whether a live event was actually canceled. Stale IDs — the event
// already ran, was already canceled, or its slot was recycled — return
// false without side effects. Canceled events are dropped lazily: once
// they exceed half the queue the heap is swept and their slots freed, so
// cancel-heavy workloads (timeout patterns) cannot accumulate dead
// entries.
func (k *Kernel) Cancel(id EventID) bool {
	if id == 0 {
		return false
	}
	if k.ref != nil {
		return k.ref.cancel(id)
	}
	si := int64(id >> 32)
	if si >= int64(len(k.slots)) {
		return false
	}
	s := &k.slots[si]
	if s.gen != uint32(id) || s.canceled {
		return false
	}
	s.canceled = true
	k.canceled++
	if k.canceled >= 4 && k.canceled*2 > len(k.heap) {
		k.sweep()
	}
	return true
}

// sweep compacts the heap in place, freeing every canceled slot, and
// re-heapifies. O(n), amortized against the cancels that triggered it.
func (k *Kernel) sweep() {
	live := k.heap[:0]
	for _, si := range k.heap {
		if k.slots[si].canceled {
			k.freeSlot(si)
		} else {
			live = append(live, si)
		}
	}
	k.heap = live
	k.canceled = 0
	for i := len(k.heap)/2 - 1; i >= 0; i-- {
		k.down(i)
	}
}

// popNext discards canceled events at the top of the queue and pops the
// next live event if it is due at or before horizon.
func (k *Kernel) popNext(horizon Time) (fn func(any), arg any, at Time, ok bool) {
	if k.ref != nil {
		return k.ref.popNext(horizon)
	}
	for len(k.heap) > 0 {
		si := k.heap[0]
		s := &k.slots[si]
		if s.canceled {
			k.removeTop()
			k.canceled--
			k.freeSlot(si)
			continue
		}
		if s.at > horizon {
			return nil, nil, 0, false
		}
		k.removeTop()
		fn, arg, at = s.fn, s.arg, s.at
		// Free before dispatch: a self-rescheduling chain (tickers, the
		// dominant steady-state pattern) reuses this very slot, keeping the
		// arena at its high-water mark with zero allocation.
		k.freeSlot(si)
		return fn, arg, at, true
	}
	return nil, nil, 0, false
}

// Event is a legacy convenience handle for the closure-based scheduling
// API. Hot paths should hold the EventID from AtFunc/AfterFunc instead.
type Event struct {
	k        *Kernel
	id       EventID
	at       Time
	canceled bool
}

// Cancel marks the event so the kernel skips it. Canceling an already-run
// or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	e.k.Cancel(e.id)
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// At reports the scheduled execution instant.
func (e *Event) At() Time { return e.at }

// runFunc0 adapts a plain func() to the arena's func(any) calling
// convention; storing the func value in the arg word costs no allocation.
func runFunc0(arg any) { arg.(func())() }

// At schedules fn at absolute time at. This is the convenience form: it
// allocates a handle per call, so steady-state schedulers should prefer
// AtFunc. Scheduling in the past (before Now) panics.
func (k *Kernel) At(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	id := k.AtFunc(at, runFunc0, fn)
	return &Event{k: k, id: id, at: at}
}

// After schedules fn at Now()+d. Negative d is clamped to zero.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Stop makes Run return ErrStopped after the current event completes.
// A stop requested while no run is in progress is sticky: the next
// Run/RunAll call returns ErrStopped immediately instead of silently
// discarding the request (each Stop aborts exactly one run).
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the single next event, advancing the clock to it.
// It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	fn, arg, at, ok := k.popNext(Time(math.MaxInt64))
	if !ok {
		return false
	}
	if at < k.now {
		panic("sim: time went backwards")
	}
	k.now = at
	k.executed++
	fn(arg)
	return true
}

// Run executes events until the clock would pass horizon, the queue drains,
// or Stop is called. The clock is left at min(horizon, last event time) —
// after a complete run it is set to the horizon so that subsequent
// scheduling is relative to the intended end time. A Stop issued before
// Run aborts it up front (consuming the stop request).
func (k *Kernel) Run(horizon Time) error {
	if k.running {
		return errors.New("sim: Run reentered")
	}
	k.running = true
	defer func() { k.running = false }()
	for {
		if k.stopped {
			k.stopped = false
			return ErrStopped
		}
		fn, arg, at, ok := k.popNext(horizon)
		if !ok {
			break
		}
		k.now = at
		k.executed++
		fn(arg)
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// RunAll executes every pending event regardless of horizon. Like Run, a
// pre-issued Stop aborts it before the first event.
func (k *Kernel) RunAll() error {
	if k.stopped {
		k.stopped = false
		return ErrStopped
	}
	for k.Step() {
		if k.stopped {
			k.stopped = false
			return ErrStopped
		}
	}
	return nil
}

// Ticker invokes fn every period until canceled or the kernel drains.
// The first invocation happens one period from now. Re-arming goes
// through AfterFunc with the ticker itself as the argument, so a
// steady-state ticker allocates nothing per tick.
type Ticker struct {
	k      *Kernel
	period time.Duration
	fn     func(Time)
	id     EventID
	done   bool
}

// Every creates and starts a Ticker. period must be positive.
func (k *Kernel) Every(period time.Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.arm()
	return t
}

// runTicker fires one tick and re-arms; package-level so rearming stays
// allocation-free.
func runTicker(arg any) {
	t := arg.(*Ticker)
	if t.done {
		return
	}
	t.fn(t.k.Now())
	if !t.done {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.id = t.k.AfterFunc(t.period, runTicker, t)
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.done = true
	t.k.Cancel(t.id)
}
