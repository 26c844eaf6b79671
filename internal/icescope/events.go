package icescope

import (
	"sync"
	"time"
)

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

// SpanEvent is one entry of a trace's live event stream. Offsets are
// monotonic durations from the trace epoch, so a consumer needs no
// clock agreement with the producer. Seq is assigned at publication
// and strictly increases within one trace.
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

// eventLog is the bounded, drop-counting event plane behind a trace.
// It exists only when StreamEvents armed it; the nil case keeps every
// publication down to one pointer load on un-streamed traces.
type eventLog struct {
	mu      sync.Mutex
	max     int
	seq     uint64
	log     []SpanEvent
	subs    []chan SpanEvent
	closed  bool
	dropped uint64
}

// StreamEvents arms the trace's live event plane with a bound of max
// retained events (<=0 picks 4096). Beyond the bound events are
// counted as dropped — from the log and from every subscriber alike —
// so a pathological span storm degrades the stream, never the process.
// Must be called before recording begins (like SetMaxSpans, it is not
// synchronized against recording).
func (t *Trace) StreamEvents(max int) {
	if t == nil {
		return
	}
	if max <= 0 {
		max = 4096
	}
	t.events = &eventLog{max: max}
}

// EventsArmed reports whether StreamEvents armed the live plane.
func (t *Trace) EventsArmed() bool { return t != nil && t.events != nil }

// EventsDropped reports events discarded over the stream bound.
func (t *Trace) EventsDropped() uint64 {
	if t == nil || t.events == nil {
		return 0
	}
	l := t.events
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// SubscribeEvents returns the events published so far and a live
// channel for the rest. The channel is buffered to the stream bound, so
// publication never blocks on a slow subscriber; it is closed when the
// trace's event plane closes (CloseEvents) — or immediately, when the
// plane is already closed or was never armed. cancel detaches the
// subscriber early (idempotent, never required).
func (t *Trace) SubscribeEvents() (replay []SpanEvent, live <-chan SpanEvent, cancel func()) {
	if t == nil || t.events == nil {
		ch := make(chan SpanEvent)
		close(ch)
		return nil, ch, func() {}
	}
	l := t.events
	l.mu.Lock()
	defer l.mu.Unlock()
	replay = append([]SpanEvent(nil), l.log...)
	ch := make(chan SpanEvent, l.max)
	if l.closed {
		close(ch)
		return replay, ch, func() {}
	}
	l.subs = append(l.subs, ch)
	return replay, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, s := range l.subs {
			if s == ch {
				l.subs = append(l.subs[:i], l.subs[i+1:]...)
				return
			}
		}
	}
}

// CloseEvents ends the live stream: every subscriber channel closes
// after draining, and further publications are discarded (not counted
// as drops — the trace is over). Idempotent; safe on an unarmed trace.
func (t *Trace) CloseEvents() {
	if t == nil || t.events == nil {
		return
	}
	l := t.events
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

// publish appends the event to the log and fans it out, all under the
// event-log mutex, so every subscriber sees the trace's one Seq order.
func (t *Trace) publish(ev SpanEvent) {
	if t == nil || t.events == nil {
		return
	}
	l := t.events
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.log) >= l.max {
		l.dropped++
		return
	}
	l.seq++
	ev.Seq = l.seq
	l.log = append(l.log, ev)
	for _, ch := range l.subs {
		// Cannot block: the channel is buffered to the log bound and
		// every send corresponds to a log append after the subscriber's
		// replay snapshot.
		ch <- ev
	}
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
// span, re-based onto this trace's clock). It publishes a start and an
// end event, so live subscribers see injected spans mid-job exactly
// like native ones. Offsets are clamped to be non-decreasing.
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
	id := SpanID(t.ids.Add(1))
	t.publish(SpanEvent{Kind: EventStart, Span: id, Parent: parent.id, Name: name, Start: start})
	t.publish(SpanEvent{Kind: EventEnd, Span: id, Parent: parent.id, Name: name, Start: start, End: end, Attrs: attrs})
	if !t.admit() {
		return
	}
	rec := spanRec{id: id, parent: parent.id, name: name, start: start, end: end, attrs: attrs}
	t.mu.Lock()
	t.ctl = append(t.ctl, rec)
	t.mu.Unlock()
}

// SelfTimes aggregates per-span-name *self* time — each span's duration
// minus the summed duration of its direct children, floored at zero —
// across the whole trace. Self time is what trace-attribution diffing
// wants: a parent that merely waits on its children contributes
// nothing, so a regression shows up under the span that actually moved.
// Snapshot rules apply: call only after the traced work has completed.
func (t *Trace) SelfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	spans := t.snapshot()
	childSum := make(map[SpanID]time.Duration, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.parent != 0 {
			childSum[sp.parent] += sp.end - sp.start
		}
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		sp := &spans[i]
		self := (sp.end - sp.start) - childSum[sp.id]
		if self < 0 {
			self = 0
		}
		out[sp.name] += self
	}
	return out
}
