package icescope

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within its trace; 0 means "no span" (a
// root has parent 0).
type SpanID uint64

// Attr is one key/value annotation on a span. Exactly one of Str/Num is
// meaningful (isStr selects); the constructors below keep call sites
// readable and allocation-free beyond the variadic slice.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	isStr bool
}

// StrAttr annotates a span with a string value.
func StrAttr(key, value string) Attr { return Attr{Key: key, Str: value, isStr: true} }

// NumAttr annotates a span with a numeric value.
func NumAttr(key string, value float64) Attr { return Attr{Key: key, Num: value} }

// IntAttr annotates a span with an integer value.
func IntAttr(key string, value int) Attr { return Attr{Key: key, Num: float64(value)} }

// Value returns the attribute's payload as the type it was set with —
// string or float64 — for JSON renderers outside the package.
func (a Attr) Value() any {
	if a.isStr {
		return a.Str
	}
	return a.Num
}

// IsStr reports whether the attribute holds a string (false: numeric).
func (a Attr) IsStr() bool { return a.isStr }

// spanRec is one completed span as stored in a trace.
type spanRec struct {
	id, parent SpanID
	tid        int32 // recording buffer (0 = control plane), the Chrome export's tid
	name       string
	start, end time.Duration // monotonic offsets from the trace epoch
	attrs      []Attr
}

// Trace is one job's (or one process's) span recorder. All methods are
// nil-safe: a nil *Trace and the zero Span record nothing and cost a
// branch, so instrumented code needs no "is tracing on" plumbing.
//
// Two recording planes, by write frequency:
//
//   - Control plane — Trace.Start/Span.End, Trace.Instant: appended
//     under the trace mutex; safe to start and end on different
//     goroutines (a job span opened by the submitter and closed by an
//     executor, a shard span closed by a connection reader).
//   - Data plane — Trace.Buffer, Buffer.Start: each Buffer is owned by
//     exactly one worker goroutine and appends lock-free; per-cell
//     spans on the fleet's hot path take this route.
//
// A trace caps its span count (SetMaxSpans, default 65536): beyond the
// cap spans are counted as dropped rather than recorded, so a pathological
// workload degrades the trace, never the process. Snapshots (export,
// Coverage) must happen after the traced work has completed — worker
// buffers are not synchronized against their owning goroutines.
type Trace struct {
	name    string
	wall    time.Time // epoch: wall clock for export, monotonic base for offsets
	ids     atomic.Uint64
	max     int64
	count   atomic.Int64
	dropped atomic.Uint64

	mu   sync.Mutex
	ctl  []spanRec
	bufs []*Buffer

	// events is the live streaming plane (events.go); nil until
	// StreamEvents arms it, so un-streamed traces pay one pointer load
	// per publication site.
	events *eventLog
}

// NewTrace starts an empty trace whose epoch is now.
func NewTrace(name string) *Trace {
	return &Trace{name: name, wall: time.Now(), max: 65536}
}

// Name reports the trace's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetMaxSpans bounds the number of recorded spans; further spans are
// dropped (and counted). Not safe to call concurrently with recording.
func (t *Trace) SetMaxSpans(n int) {
	if t != nil && n > 0 {
		t.max = int64(n)
	}
}

// Dropped reports spans discarded over the cap.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// since is the monotonic offset of now from the trace epoch.
func (t *Trace) since() time.Duration { return time.Since(t.wall) }

// admit consumes one slot under the span cap.
func (t *Trace) admit() bool {
	if t.count.Add(1) > t.max {
		t.count.Add(-1)
		t.dropped.Add(1)
		return false
	}
	return true
}

// Span is an in-flight span handle. The zero Span is inert: Start on a
// nil trace returns it, and End/Child on it are no-ops, which is what
// lets un-traced runs share the instrumented code path.
type Span struct {
	tr     *Trace
	buf    *Buffer
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
}

// Active reports whether the span records anywhere.
func (s Span) Active() bool { return s.tr != nil }

// ID exposes the span's trace-unique ID (0 for the zero Span).
func (s Span) ID() SpanID { return s.id }

// Trace returns the owning trace (nil for the zero Span).
func (s Span) Trace() *Trace { return s.tr }

// Start opens a control-plane span under parent (the zero Span parents
// a root). The returned handle may End on any goroutine.
func (t *Trace) Start(parent Span, name string) Span {
	if t == nil {
		return Span{}
	}
	s := Span{
		tr: t, id: SpanID(t.ids.Add(1)), parent: parent.id,
		name: name, start: t.since(),
	}
	if t.events != nil {
		t.publish(SpanEvent{Kind: EventStart, Span: s.id, Parent: s.parent, Name: name, Start: s.start})
	}
	return s
}

// Child opens a control-plane span under s; inert when s is.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.Start(s, name)
}

// End completes the span, recording it with optional attributes. A span
// never ended is never recorded. Ending the zero Span is a no-op. The
// end event publishes even when the span itself drops over the cap —
// the live stream has its own bound and its own drop counter.
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	rec := spanRec{
		id: s.id, parent: s.parent, name: s.name,
		start: s.start, end: s.tr.since(), attrs: attrs,
	}
	if s.buf != nil {
		rec.tid = s.buf.tid
	}
	if s.tr.events != nil {
		s.tr.publish(SpanEvent{
			Kind: EventEnd, Span: s.id, Parent: s.parent, Tid: rec.tid,
			Name: s.name, Start: s.start, End: rec.end, Attrs: attrs,
		})
	}
	if !s.tr.admit() {
		return
	}
	if s.buf != nil {
		s.buf.spans = append(s.buf.spans, rec)
		return
	}
	s.tr.mu.Lock()
	s.tr.ctl = append(s.tr.ctl, rec)
	s.tr.mu.Unlock()
}

// Instant records a zero-duration marker under parent — an event with a
// timestamp but no extent (a CellBatch arrival, a heartbeat send). Like
// End, the live event publishes even when the marker drops over the
// span cap.
func (t *Trace) Instant(parent Span, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	at := t.since()
	id := SpanID(t.ids.Add(1))
	if t.events != nil {
		t.publish(SpanEvent{
			Kind: EventInstant, Span: id, Parent: parent.id,
			Name: name, Start: at, End: at, Attrs: attrs,
		})
	}
	if !t.admit() {
		return
	}
	rec := spanRec{id: id, parent: parent.id, name: name, start: at, end: at, attrs: attrs}
	t.mu.Lock()
	t.ctl = append(t.ctl, rec)
	t.mu.Unlock()
}

// Buffer is one worker goroutine's lock-free span sink. Exactly one
// goroutine may Start spans on a buffer (and must End them on the same
// goroutine); distinct workers get distinct buffers, so the data plane
// records without taking any lock.
type Buffer struct {
	tr    *Trace
	tid   int32
	spans []spanRec
}

// Buffer registers a new per-worker buffer (nil-safe: a nil trace
// returns a nil buffer, on which Start returns the inert zero Span).
func (t *Trace) Buffer() *Buffer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &Buffer{tr: t, tid: int32(len(t.bufs) + 1)}
	t.bufs = append(t.bufs, b)
	return b
}

// Start opens a data-plane span on the buffer's goroutine. Recording
// stays lock-free; when the trace's event plane is armed (StreamEvents)
// the start/end events additionally take the event-log mutex.
func (b *Buffer) Start(parent Span, name string) Span {
	if b == nil {
		return Span{}
	}
	s := Span{
		tr: b.tr, buf: b, id: SpanID(b.tr.ids.Add(1)), parent: parent.id,
		name: name, start: b.tr.since(),
	}
	if b.tr.events != nil {
		b.tr.publish(SpanEvent{Kind: EventStart, Span: s.id, Parent: s.parent, Tid: b.tid, Name: name, Start: s.start})
	}
	return s
}

// snapshot collects every recorded span. Callers must ensure the traced
// work has completed (worker buffers are single-owner, unsynchronized).
func (t *Trace) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]spanRec(nil), t.ctl...)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// Coverage reports the fraction of the root span's wall time attributed
// to *leaf* spans — spans no other span claims as parent. Parent spans
// ("run") don't count: attribution means the trace explains where the
// time went, not merely that it went. Instants contribute nothing
// (zero width). Returns 0 when root was never recorded or has no
// duration.
func (t *Trace) Coverage(root Span) float64 {
	if t == nil {
		return 0
	}
	spans := t.snapshot()
	isParent := map[SpanID]bool{}
	var rootRec *spanRec
	for i := range spans {
		isParent[spans[i].parent] = true
		if spans[i].id == root.id {
			rootRec = &spans[i]
		}
	}
	if rootRec == nil || rootRec.end <= rootRec.start {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for i := range spans {
		sp := &spans[i]
		if sp.id == root.id || isParent[sp.id] {
			continue
		}
		lo, hi := max(sp.start, rootRec.start), min(sp.end, rootRec.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	// Union of intervals via sweep.
	for i := 1; i < len(ivs); i++ { // insertion sort: control-plane sizes
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered, curLo, curHi time.Duration
	curLo, curHi = ivs[0].lo, ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	covered += curHi - curLo
	return float64(covered) / float64(rootRec.end-rootRec.start)
}

// spanKey is the context key for cross-seam span propagation.
type spanKey struct{}

// ContextWithSpan threads a span across an interface seam (the fleet
// engine boundary): the caller cannot name the implementation's trace
// fields, but the context travels.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if !s.Active() {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext recovers the propagated span (the inert zero Span
// when none was attached).
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanKey{}).(Span)
	return s
}
