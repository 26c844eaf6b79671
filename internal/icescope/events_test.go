package icescope

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain collects everything currently buffered on a live channel
// without blocking on future events.
func drain(live <-chan SpanEvent) []SpanEvent {
	var out []SpanEvent
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestEventStreamStartEndInstant(t *testing.T) {
	tr := NewTrace("ev")
	tr.StreamEvents(64)
	if !tr.EventsArmed() {
		t.Fatal("StreamEvents did not arm the plane")
	}
	replay, live, cancel := tr.SubscribeEvents()
	defer cancel()
	if len(replay) != 0 {
		t.Fatalf("fresh trace replayed %d events", len(replay))
	}

	root := tr.Start(Span{}, "job")
	child := root.Child("work")
	child.End(IntAttr("cells", 3))
	tr.Instant(root, "ping", StrAttr("how", "test"))
	root.End()

	got := drain(live)
	// start(job), start(work), end(work), instant(ping), end(job)
	if len(got) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(got), got)
	}
	wantKinds := []SpanEventKind{EventStart, EventStart, EventEnd, EventInstant, EventEnd}
	wantNames := []string{"job", "work", "work", "ping", "job"}
	for i, ev := range got {
		if ev.Kind != wantKinds[i] || ev.Name != wantNames[i] {
			t.Fatalf("event %d = %s %q, want %s %q", i, ev.Kind, ev.Name, wantKinds[i], wantNames[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	// End events are self-contained: both offsets, attrs, and parentage.
	endWork := got[2]
	if endWork.Span != got[1].Span || endWork.Parent != got[0].Span {
		t.Fatalf("end(work) ids %d/%d do not match start events %+v", endWork.Span, endWork.Parent, got)
	}
	if endWork.End < endWork.Start {
		t.Fatalf("end(work) offsets inverted: %v > %v", endWork.Start, endWork.End)
	}
	if len(endWork.Attrs) != 1 || endWork.Attrs[0].Key != "cells" {
		t.Fatalf("end(work) attrs = %+v", endWork.Attrs)
	}
	if got[3].Start != got[3].End {
		t.Fatal("instant event has extent")
	}

	// A late subscriber replays the full history.
	replay2, live2, cancel2 := tr.SubscribeEvents()
	defer cancel2()
	if len(replay2) != 5 {
		t.Fatalf("late subscriber replayed %d events, want 5", len(replay2))
	}
	if n := len(drain(live2)); n != 0 {
		t.Fatalf("late subscriber got %d live events before any recording", n)
	}
}

func TestEventStreamBufferSpans(t *testing.T) {
	tr := NewTrace("buf")
	tr.StreamEvents(16)
	_, live, cancel := tr.SubscribeEvents()
	defer cancel()
	root := tr.Start(Span{}, "job")
	b := tr.Buffer()
	sp := b.Start(root, "cell run")
	sp.End(IntAttr("cell", 0))
	got := drain(live)
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	if got[1].Tid == 0 || got[2].Tid != got[1].Tid {
		t.Fatalf("buffer events did not carry the worker tid: %+v", got[1:])
	}
}

func TestEventStreamBoundAndDrops(t *testing.T) {
	tr := NewTrace("bound")
	tr.StreamEvents(4)
	_, live, cancel := tr.SubscribeEvents()
	defer cancel()
	for i := 0; i < 10; i++ {
		tr.Instant(Span{}, "tick")
	}
	if got := len(drain(live)); got != 4 {
		t.Fatalf("subscriber got %d events past a bound of 4", got)
	}
	if d := tr.EventsDropped(); d != 6 {
		t.Fatalf("EventsDropped = %d, want 6", d)
	}
	// The span plane has its own cap: nothing dropped there.
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("span Dropped = %d, want 0", d)
	}
}

func TestEventPublishSurvivesSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	tr.SetMaxSpans(1)
	tr.StreamEvents(64)
	_, live, cancel := tr.SubscribeEvents()
	defer cancel()
	tr.Start(Span{}, "a").End()
	tr.Start(Span{}, "b").End() // dropped from the trace...
	tr.Instant(Span{}, "c")     // ...and so is this
	if d := tr.Dropped(); d != 2 {
		t.Fatalf("span Dropped = %d, want 2", d)
	}
	got := drain(live)
	// ...but the live stream still announced all of them.
	if len(got) != 5 {
		t.Fatalf("got %d events, want 5 (cap must not mute the stream)", len(got))
	}
}

func TestEventStreamCloseAndCancel(t *testing.T) {
	tr := NewTrace("close")
	tr.StreamEvents(8)
	_, live, cancel := tr.SubscribeEvents()
	_, live2, _ := tr.SubscribeEvents()
	tr.Instant(Span{}, "before")
	cancel()
	cancel() // idempotent
	tr.Instant(Span{}, "after-cancel")
	if got := len(drain(live)); got != 1 {
		t.Fatalf("cancelled subscriber got %d events, want 1", got)
	}
	tr.CloseEvents()
	tr.CloseEvents() // idempotent
	tr.Instant(Span{}, "after-close")
	evs := drain(live2)
	if len(evs) != 2 {
		t.Fatalf("subscriber got %d events, want 2 (publication after close is discarded)", len(evs))
	}
	if _, ok := <-live2; ok {
		t.Fatal("live channel not closed after CloseEvents")
	}
	// Subscribing after close: replay, then an already-closed channel.
	replay, live3, _ := tr.SubscribeEvents()
	if len(replay) != 2 {
		t.Fatalf("post-close replay = %d events, want 2", len(replay))
	}
	if _, ok := <-live3; ok {
		t.Fatal("post-close live channel not closed")
	}
}

func TestEventStreamUnarmedAndNil(t *testing.T) {
	tr := NewTrace("unarmed")
	tr.Start(Span{}, "a").End() // no stream armed: must not panic
	replay, live, cancel := tr.SubscribeEvents()
	cancel()
	if replay != nil {
		t.Fatalf("unarmed replay = %+v", replay)
	}
	if _, ok := <-live; ok {
		t.Fatal("unarmed live channel not pre-closed")
	}
	if tr.EventsArmed() || tr.EventsDropped() != 0 {
		t.Fatal("unarmed trace reports an armed plane")
	}

	var nilTr *Trace
	nilTr.StreamEvents(8)
	nilTr.CloseEvents()
	nilTr.InjectSpan(Span{}, "x", 0, 0)
	if nilTr.EventsArmed() || nilTr.EventsDropped() != 0 || nilTr.Now() != 0 {
		t.Fatal("nil trace leaked state")
	}
	if nilTr.SelfTimes() != nil {
		t.Fatal("nil trace SelfTimes not nil")
	}
	replay, live, cancel = nilTr.SubscribeEvents()
	cancel()
	if replay != nil {
		t.Fatal("nil trace replayed events")
	}
	if _, ok := <-live; ok {
		t.Fatal("nil trace live channel not pre-closed")
	}
}

func TestEventStreamDefaultBound(t *testing.T) {
	tr := NewTrace("default")
	tr.StreamEvents(0)
	if tr.events.max != 4096 {
		t.Fatalf("default bound = %d, want 4096", tr.events.max)
	}
}

func TestInjectSpan(t *testing.T) {
	tr := NewTrace("inject")
	tr.StreamEvents(64)
	_, live, cancel := tr.SubscribeEvents()
	defer cancel()
	root := tr.Start(Span{}, "job")
	tr.InjectSpan(root, "remote cell", 5*time.Millisecond, 9*time.Millisecond, StrAttr("node", "n1"))
	tr.InjectSpan(root, "clamped", -time.Millisecond, -2*time.Millisecond)
	root.End()

	got := drain(live)
	if len(got) != 6 {
		t.Fatalf("got %d events, want 6", len(got))
	}
	if got[1].Kind != EventStart || got[2].Kind != EventEnd || got[1].Name != "remote cell" {
		t.Fatalf("inject events = %+v", got[1:3])
	}
	if got[2].Start != 5*time.Millisecond || got[2].End != 9*time.Millisecond {
		t.Fatalf("inject offsets = %v..%v", got[2].Start, got[2].End)
	}
	if got[4].Start != 0 || got[4].End != 0 {
		t.Fatalf("clamped inject offsets = %v..%v, want 0..0", got[4].Start, got[4].End)
	}

	// The injected span is in the recorded tree under its parent.
	text := tr.TextString()
	if want := "remote cell"; !strings.Contains(text, want) {
		t.Fatalf("trace text missing %q:\n%s", want, text)
	}
	spans := tr.snapshot()
	var found bool
	for _, sp := range spans {
		if sp.name == "remote cell" {
			found = true
			if sp.parent != root.ID() || sp.start != 5*time.Millisecond || sp.end != 9*time.Millisecond {
				t.Fatalf("injected rec = %+v", sp)
			}
		}
	}
	if !found {
		t.Fatal("injected span not recorded")
	}
}

func TestInjectSpanOverCap(t *testing.T) {
	tr := NewTrace("inject-cap")
	tr.SetMaxSpans(1)
	tr.Start(Span{}, "a").End()
	tr.InjectSpan(Span{}, "b", 0, time.Millisecond)
	if d := tr.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
	if len(tr.snapshot()) != 1 {
		t.Fatal("over-cap inject was recorded")
	}
}

func TestTraceNowMonotonic(t *testing.T) {
	tr := NewTrace("now")
	a := tr.Now()
	time.Sleep(time.Millisecond)
	b := tr.Now()
	if b <= a {
		t.Fatalf("Now not monotonic: %v then %v", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := NewTrace("self")
	root := tr.Start(Span{}, "job")
	// Hand-build deterministic spans via InjectSpan offsets.
	tr.InjectSpan(root, "shard", 0, 10*time.Millisecond)
	tr.InjectSpan(root, "shard", 10*time.Millisecond, 14*time.Millisecond)
	root.End()
	st := tr.SelfTimes()
	if st["shard"] != 14*time.Millisecond {
		t.Fatalf("shard self time = %v, want 14ms", st["shard"])
	}
	// The root's self time excludes its children's extent.
	rootSelf := st["job"]
	if rootSelf < 0 || rootSelf > tr.Now() {
		t.Fatalf("job self time = %v out of range", rootSelf)
	}
	// A parent fully covered by children floors at zero, never negative.
	tr2 := NewTrace("floor")
	p := tr2.Start(Span{}, "parent")
	time.Sleep(time.Millisecond)
	p.End()
	// Children sum to more than the parent's extent.
	pr := tr2.snapshot()[0]
	tr2mustInject(tr2, pr, t)
	st2 := tr2.SelfTimes()
	if st2["parent"] != 0 {
		t.Fatalf("over-attributed parent self time = %v, want 0", st2["parent"])
	}
}

// tr2mustInject injects two children that together exceed the parent's
// own extent, forcing the self-time floor.
func tr2mustInject(tr *Trace, parent spanRec, t *testing.T) {
	t.Helper()
	ps := Span{tr: tr, id: parent.id}
	tr.InjectSpan(ps, "kid", parent.start, parent.end)
	tr.InjectSpan(ps, "kid", parent.start, parent.end)
}

func TestEventStreamConcurrentPublish(t *testing.T) {
	tr := NewTrace("race")
	tr.StreamEvents(10000)
	_, live, cancel := tr.SubscribeEvents()
	defer cancel()
	var wg sync.WaitGroup
	const G, N = 8, 50
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				sp := tr.Start(Span{}, fmt.Sprintf("g%d", g))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	tr.CloseEvents()
	var got []SpanEvent
	for ev := range live {
		got = append(got, ev)
	}
	if len(got) != G*N*2 {
		t.Fatalf("got %d events, want %d", len(got), G*N*2)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d: stream not totally ordered", i, ev.Seq)
		}
	}
}

func TestSpanEventKindString(t *testing.T) {
	cases := map[SpanEventKind]string{
		EventStart: "start", EventEnd: "end", EventInstant: "instant",
		SpanEventKind(0): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
