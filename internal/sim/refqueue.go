package sim

import (
	"container/heap"
	"sync/atomic"
)

// refQueueMode routes kernels created by NewKernel through the reference
// queue below. Test-only; atomic because fleet worker goroutines create
// kernels concurrently while a differential test holds the mode steady.
var refQueueMode atomic.Bool

// SetReferenceQueueForTest makes every subsequently created Kernel use the
// pre-arena container/heap-of-pointers queue. The arena kernel is the
// production implementation; the reference exists so the differential
// determinism suite can run whole scenarios on both backends and assert
// byte-identical tables. Never enable it outside tests.
func SetReferenceQueueForTest(on bool) { refQueueMode.Store(on) }

// refEvent is the reference queue's per-event record — one heap
// allocation per event, exactly like the pre-arena kernel.
type refEvent struct {
	at       Time
	seq      uint64
	fn       func(any)
	arg      any
	canceled bool
	index    int
	id       EventID
}

type refHeap []*refEvent

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// refQueue adapts the original queue to the kernel's backend seam. IDs
// are a plain counter resolved through a map; performance is irrelevant
// here — ordering fidelity is the point.
type refQueue struct {
	h        refHeap
	byID     map[EventID]*refEvent
	nextID   uint64
	canceled int
}

func newRefQueue() *refQueue {
	return &refQueue{byID: make(map[EventID]*refEvent)}
}

func (q *refQueue) push(at Time, seq uint64, fn func(any), arg any) EventID {
	q.nextID++
	e := &refEvent{at: at, seq: seq, fn: fn, arg: arg, id: EventID(q.nextID)}
	heap.Push(&q.h, e)
	q.byID[e.id] = e
	return e.id
}

func (q *refQueue) cancel(id EventID) bool {
	e, ok := q.byID[id]
	if !ok || e.canceled {
		return false
	}
	e.canceled = true
	q.canceled++
	return true
}

func (q *refQueue) pending() int { return len(q.h) - q.canceled }

func (q *refQueue) popNext(horizon Time) (func(any), any, Time, bool) {
	for len(q.h) > 0 {
		e := q.h[0]
		if e.canceled {
			heap.Pop(&q.h)
			delete(q.byID, e.id)
			q.canceled--
			continue
		}
		if e.at > horizon {
			return nil, nil, 0, false
		}
		heap.Pop(&q.h)
		delete(q.byID, e.id)
		return e.fn, e.arg, e.at, true
	}
	return nil, nil, 0, false
}
