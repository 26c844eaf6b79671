package icescope

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventStreamStartEndInstant(t *testing.T) {
	tr := NewTrace("ev")
	if evs, wait, closed := tr.EventsFrom(0); len(evs) != 0 || wait == nil || closed {
		t.Fatalf("fresh trace: %d events, wait %v, closed %v", len(evs), wait, closed)
	}

	root := tr.Start(Span{}, "job")
	child := root.Child("work")
	child.End(IntAttr("cells", 3))
	tr.Instant(root, "ping", StrAttr("how", "test"))
	root.End()

	got, _, _ := tr.EventsFrom(0)
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

	// A reader from a later position gets the rest; one at the end gets
	// nothing and waits.
	if rest, _, _ := tr.EventsFrom(3); len(rest) != 2 || rest[0].Seq != 4 {
		t.Fatalf("EventsFrom(3) = %+v, want Seq 4 and 5", rest)
	}
	if evs, wait, _ := tr.EventsFrom(5); len(evs) != 0 || wait == nil {
		t.Fatalf("reader at the end got %d events and wait %v", len(evs), wait)
	}
}

func TestEventStreamLaneTids(t *testing.T) {
	tr := NewTrace("lanes")
	root := tr.Start(Span{}, "job")
	sp := root.ChildOn(3, "cell run")
	sp.End(IntAttr("cell", 0))
	root.Child("merge").End()
	got, _, _ := tr.EventsFrom(0)
	if len(got) != 5 {
		t.Fatalf("got %d events, want 5", len(got))
	}
	if got[1].Tid != 3 || got[2].Tid != 3 {
		t.Fatalf("lane events did not carry the lane tid: %+v", got[1:3])
	}
	if got[0].Tid != 0 || got[3].Tid != 0 || got[4].Tid != 0 {
		t.Fatalf("Start and Child events left lane 0: %+v", got)
	}
}

func TestEventStreamCloseAndCancel(t *testing.T) {
	tr := NewTrace("close")
	tr.Instant(Span{}, "before")
	evs, wait, closed := tr.EventsFrom(1)
	if len(evs) != 0 || wait == nil || closed {
		t.Fatalf("reader at the end of an open log: %d events, wait %v, closed %v", len(evs), wait, closed)
	}
	woke := make(chan struct{})
	go func() {
		<-wait
		close(woke)
	}()
	tr.Close()
	tr.Close() // idempotent
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the waiting reader")
	}
	if evs, wait, closed := tr.EventsFrom(1); len(evs) != 0 || wait != nil || !closed {
		t.Fatalf("reader at the end of a closed log: %d events, wait %v, closed %v", len(evs), wait, closed)
	}
	// A closed log is sealed: later spans are counted, not logged.
	tr.Instant(Span{}, "after-close")
	tr.Start(Span{}, "late").End()
	if evs, _, closed := tr.EventsFrom(0); len(evs) != 1 || !closed {
		t.Fatalf("closed log holds %d events (closed %v), want the 1 logged before Close", len(evs), closed)
	}
	if d := tr.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d after two spans past Close, want 2", d)
	}

	// A reader that stops waiting holds nothing: the next append closes
	// its channel and the trace forgets it.
	tr2 := NewTrace("cancel")
	_, abandoned, _ := tr2.EventsFrom(0)
	tr2.Instant(Span{}, "tick")
	select {
	case <-abandoned:
	default:
		t.Fatal("append did not close the wait channel")
	}
	if tr2.wake != nil {
		t.Fatal("trace kept a wait channel after waking its readers")
	}
}

func TestEventStreamUnarmedAndNil(t *testing.T) {
	tr := NewTrace("unarmed")
	tr.Start(Span{}, "a").End() // nobody reads: must not panic
	if tr.wake != nil {
		t.Fatal("a trace nobody waits on made a wait channel")
	}
	if evs, _, _ := tr.EventsFrom(0); len(evs) != 2 {
		t.Fatalf("unread trace logged %d events, want 2", len(evs))
	}

	var nilTr *Trace
	nilTr.Close()
	nilTr.InjectSpan(Span{}, "x", 0, 0)
	if nilTr.Dropped() != 0 || nilTr.Now() != 0 {
		t.Fatal("nil trace leaked state")
	}
	if nilTr.SelfTimes() != nil {
		t.Fatal("nil trace SelfTimes not nil")
	}
	if evs, wait, closed := nilTr.EventsFrom(0); evs != nil || wait != nil || !closed {
		t.Fatalf("nil trace read as %d events, wait %v, closed %v; want an empty closed log", len(evs), wait, closed)
	}
}

func TestInjectSpan(t *testing.T) {
	tr := NewTrace("inject")
	root := tr.Start(Span{}, "job")
	tr.InjectSpan(root, "remote cell", 5*time.Millisecond, 9*time.Millisecond, StrAttr("node", "n1"))
	tr.InjectSpan(root, "clamped", -time.Millisecond, -2*time.Millisecond)
	root.End()

	got, _, _ := tr.EventsFrom(0)
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
	spans := tr.Spans()
	var found bool
	for _, sp := range spans {
		if sp.Name == "remote cell" {
			found = true
			if sp.Parent != root.ID() || sp.Start != 5*time.Millisecond || sp.End != 9*time.Millisecond {
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
	if len(tr.Spans()) != 1 {
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
	pr := tr2.Spans()[0]
	tr2mustInject(tr2, pr, t)
	st2 := tr2.SelfTimes()
	if st2["parent"] != 0 {
		t.Fatalf("over-attributed parent self time = %v, want 0", st2["parent"])
	}
}

// tr2mustInject injects two children that together exceed the parent's
// own extent, forcing the self-time floor.
func tr2mustInject(tr *Trace, parent SpanEvent, t *testing.T) {
	t.Helper()
	ps := Span{tr: tr, id: parent.Span}
	tr.InjectSpan(ps, "kid", parent.Start, parent.End)
	tr.InjectSpan(ps, "kid", parent.Start, parent.End)
}

// A reader follows the log from position 0 while 8 goroutines record:
// it sees every event once, in Seq order (run under -race in CI).
func TestEventStreamConcurrentPublish(t *testing.T) {
	tr := NewTrace("race")
	const G, N = 8, 50
	got := make(chan []SpanEvent)
	go func() {
		var evs []SpanEvent
		for {
			more, wait, closed := tr.EventsFrom(len(evs))
			evs = append(evs, more...)
			if closed {
				got <- evs
				return
			}
			if wait != nil {
				<-wait
			}
		}
	}()
	var wg sync.WaitGroup
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
	tr.Close()
	evs := <-got
	if len(evs) != G*N*2 {
		t.Fatalf("reader got %d events, want %d", len(evs), G*N*2)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d: log not totally ordered", i, ev.Seq)
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
