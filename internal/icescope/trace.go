package icescope

import (
	"context"
	"sync"
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

// Trace is one job's (or one process's) span recorder. All methods are
// nil-safe: a nil *Trace and the zero Span record nothing and cost a
// branch, so instrumented code needs no "is tracing on" plumbing.
//
// A trace is one append-only log of span events under one mutex: Start
// logs a start, End an end, Instant an instant and InjectSpan a start
// and an end, each at its position in the log (its Seq). Spans may start
// and end on different goroutines (a job span opened by the submitter
// and closed by an executor). The exports read the completed spans in
// the log, so they may run at any time and see every span ended so far;
// live readers follow the log by position with EventsFrom.
//
// A trace caps its completed spans (SetMaxSpans, default 65536): a
// start is logged while the trace is under its cap, and an end or
// instant past the cap is counted in Dropped and logged nowhere, so a
// pathological workload degrades the trace, never the process. Close
// seals the log the same way.
type Trace struct {
	name string
	wall time.Time // epoch: wall clock for export, monotonic base for offsets

	mu      sync.Mutex
	ids     uint64
	max     int
	log     []SpanEvent
	spans   int // completed spans (ends and instants) in log
	dropped uint64
	closed  bool
	wake    chan struct{} // made when a reader waits at the log's end; closed by the next append or Close
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

// SetMaxSpans bounds the number of completed spans the trace logs;
// further spans are dropped (and counted).
func (t *Trace) SetMaxSpans(n int) {
	if t != nil && n > 0 {
		t.mu.Lock()
		t.max = n
		t.mu.Unlock()
	}
}

// Dropped reports spans ended or marked past the cap or after Close.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// since is the monotonic offset of now from the trace epoch.
func (t *Trace) since() time.Duration { return time.Since(t.wall) }

// logLocked appends ev at the end of the log, unless the log is closed
// or ev would complete a span past the cap; it reports whether it did.
// Callers hold t.mu.
func (t *Trace) logLocked(ev SpanEvent) bool {
	if t.closed || t.spans >= t.max {
		return false
	}
	if ev.Kind != EventStart {
		t.spans++
	}
	ev.Seq = uint64(len(t.log)) + 1
	t.log = append(t.log, ev)
	t.wakeLocked()
	return true
}

// wakeLocked releases the readers waiting at the log's end; callers hold
// t.mu.
func (t *Trace) wakeLocked() {
	if t.wake != nil {
		close(t.wake)
		t.wake = nil
	}
}

// completeLocked logs a completed span (an end or an instant), counting
// it as dropped when the log refuses it; callers hold t.mu.
func (t *Trace) completeLocked(ev SpanEvent) {
	if !t.logLocked(ev) {
		t.dropped++
	}
}

// Span is an in-flight span handle. The zero Span is inert: Start on a
// nil trace returns it, and End/Child on it are no-ops, which is what
// lets un-traced runs share the instrumented code path.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	tid    int32
	name   string
	start  time.Duration
}

// Active reports whether the span records anywhere.
func (s Span) Active() bool { return s.tr != nil }

// ID exposes the span's trace-unique ID (0 for the zero Span).
func (s Span) ID() SpanID { return s.id }

// Trace returns the owning trace (nil for the zero Span).
func (s Span) Trace() *Trace { return s.tr }

// Start opens a span under parent (the zero Span parents a root) on
// lane 0. The returned handle may End on any goroutine.
func (t *Trace) Start(parent Span, name string) Span {
	return t.start(parent, 0, name)
}

func (t *Trace) start(parent Span, tid int32, name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	s := Span{tr: t, id: SpanID(t.ids), parent: parent.id, tid: tid, name: name, start: t.since()}
	t.logLocked(SpanEvent{Kind: EventStart, Span: s.id, Parent: s.parent, Tid: tid, Name: name, Start: s.start})
	return s
}

// Child opens a span under s on lane 0; inert when s is.
func (s Span) Child(name string) Span { return s.ChildOn(0, name) }

// ChildOn opens a span under s on a Chrome lane (its tid), so that
// spans running side by side, such as the cells of a fleet pool's
// slots, show as parallel rows; inert when s is.
func (s Span) ChildOn(lane int32, name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.start(s, lane, name)
}

// End completes the span, logging it with optional attributes. A span
// never ended is never completed. Ending the zero Span is a no-op.
func (s Span) End(attrs ...Attr) {
	t := s.tr
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.completeLocked(SpanEvent{
		Kind: EventEnd, Span: s.id, Parent: s.parent, Tid: s.tid,
		Name: s.name, Start: s.start, End: t.since(), Attrs: attrs,
	})
}

// Instant records a zero-duration marker under parent — an event with a
// timestamp but no extent (a CellBatch arrival, a heartbeat send).
func (t *Trace) Instant(parent Span, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	at := t.since()
	t.completeLocked(SpanEvent{
		Kind: EventInstant, Span: SpanID(t.ids), Parent: parent.id,
		Name: name, Start: at, End: at, Attrs: attrs,
	})
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
	spans := t.Spans()
	isParent := map[SpanID]bool{}
	var rootRec *SpanEvent
	for i := range spans {
		isParent[spans[i].Parent] = true
		if spans[i].Span == root.id {
			rootRec = &spans[i]
		}
	}
	if rootRec == nil || rootRec.End <= rootRec.Start {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for i := range spans {
		sp := &spans[i]
		if sp.Span == root.id || isParent[sp.Span] {
			continue
		}
		lo, hi := max(sp.Start, rootRec.Start), min(sp.End, rootRec.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	// Union of intervals via sweep.
	for i := 1; i < len(ivs); i++ { // insertion sort
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
	return float64(covered) / float64(rootRec.End-rootRec.Start)
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
