package icescope

import "time"

// SpanEventKind distinguishes the three moments a trace can announce.
type SpanEventKind uint8

const (
	// EventStart announces a span that just opened (End is zero and
	// meaningless; the closing EventEnd repeats Start, so consumers that
	// only care about completed spans can ignore starts entirely).
	EventStart SpanEventKind = iota + 1
	// EventEnd announces a completed span and is self-contained: it
	// carries both offsets and the attributes.
	EventEnd
	// EventInstant announces a zero-duration marker (Start == End).
	EventInstant
)

// String renders the kind for NDJSON export.
func (k SpanEventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventEnd:
		return "end"
	case EventInstant:
		return "instant"
	}
	return "unknown"
}

// SpanEvent is one entry of a trace's log. Offsets are monotonic
// durations from the trace epoch, so a consumer needs no clock agreement
// with the producer. Seq is the event's position in the log plus one.
type SpanEvent struct {
	Seq    uint64
	Kind   SpanEventKind
	Span   SpanID
	Parent SpanID
	Tid    int32
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// EventsFrom returns the logged events from position i on (0 reads the
// whole log), in Seq order, and whether the log is closed. When there
// are none and the log is still open, wait is closed by the next append
// or by Close, so a live reader follows the trace by position:
//
//	for i := 0; ; {
//		evs, wait, closed := tr.EventsFrom(i)
//		// ... use evs ...
//		i += len(evs)
//		if closed {
//			break
//		}
//		if wait != nil {
//			<-wait
//		}
//	}
//
// The returned slice shares the log's storage and must not be modified.
// A nil trace reads as an empty, closed log.
func (t *Trace) EventsFrom(i int) (evs []SpanEvent, wait <-chan struct{}, closed bool) {
	if t == nil {
		return nil, nil, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.log); i < n {
		return t.log[i:n:n], nil, t.closed
	}
	if t.closed {
		return nil, nil, true
	}
	if t.wake == nil {
		t.wake = make(chan struct{})
	}
	return nil, t.wake, false
}

// Close seals the log: readers waiting at its end wake and see it
// closed, starts are no longer logged, and ends and instants count as
// dropped. Idempotent.
func (t *Trace) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.wakeLocked()
}

// Now reports the current instant as a trace-clock offset. The mesh
// coordinator uses it to re-base forwarded node offsets onto the job
// trace's epoch.
func (t *Trace) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.since()
}

// InjectSpan records an already-completed span with caller-supplied
// offsets — the seam for spans that happened elsewhere (a node's cell
// span, re-based onto this trace's clock). It logs a start and an end,
// so live readers see injected spans mid-job exactly like native ones.
// Offsets are clamped to be non-decreasing.
func (t *Trace) InjectSpan(parent Span, name string, start, end time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if start < 0 {
		start = 0
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	ev := SpanEvent{Kind: EventStart, Span: SpanID(t.ids), Parent: parent.id, Name: name, Start: start}
	t.logLocked(ev)
	ev.Kind, ev.End, ev.Attrs = EventEnd, end, attrs
	t.completeLocked(ev)
}

// SelfTimes aggregates per-span-name *self* time — each span's duration
// minus the summed duration of its direct children, floored at zero —
// across the whole trace. Self time is what trace-attribution diffing
// wants: a parent that merely waits on its children contributes
// nothing, so a regression shows up under the span that actually moved.
func (t *Trace) SelfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	childSum := make(map[SpanID]time.Duration, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != 0 {
			childSum[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		sp := &spans[i]
		self := (sp.End - sp.Start) - childSum[sp.Span]
		if self < 0 {
			self = 0
		}
		out[sp.Name] += self
	}
	return out
}
