package icescope

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTreeAndExports(t *testing.T) {
	tr := NewTrace("job test-1")
	root := tr.Start(Span{}, "job")
	plan := root.Child("plan")
	time.Sleep(time.Millisecond)
	plan.End(IntAttr("shards", 4))
	cell := root.ChildOn(1, "cell 0 run")
	time.Sleep(time.Millisecond)
	cell.End(StrAttr("mode", "proto"))
	tr.Instant(root, "celldone", IntAttr("cell", 0))
	root.End()

	text := tr.TextString()
	for _, want := range []string{"trace job test-1", "job", "plan", "shards=4", "cell 0 run", "mode=proto", "celldone !"} {
		if !strings.Contains(text, want) {
			t.Errorf("text export missing %q:\n%s", want, text)
		}
	}
	// plan must be indented under job.
	jobLine, planLine := "", ""
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, "job ") || strings.TrimSpace(ln) == "job" || strings.HasPrefix(strings.TrimLeft(ln, " "), "job ") {
			if jobLine == "" && !strings.HasPrefix(ln, "trace") {
				jobLine = ln
			}
		}
		if strings.Contains(ln, "plan") {
			planLine = ln
		}
	}
	if jobLine == "" || planLine == "" {
		t.Fatalf("missing job/plan lines:\n%s", text)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	if indent(planLine) <= indent(jobLine) {
		t.Errorf("plan not nested under job:\njob:  %q\nplan: %q", jobLine, planLine)
	}

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int32          `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &file); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, b.String())
	}
	if len(file.TraceEvents) != 4 {
		t.Fatalf("want 4 events, got %d", len(file.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range file.TraceEvents {
		byName[ev.Name] = i
	}
	if ev := file.TraceEvents[byName["cell 0 run"]]; ev.TID != 1 || ev.Phase != "X" || ev.Dur <= 0 || ev.Args["mode"] != "proto" {
		t.Errorf("cell event wrong: %+v", ev)
	}
	if ev := file.TraceEvents[byName["celldone"]]; ev.Phase != "i" {
		t.Errorf("instant not ph=i: %+v", ev)
	}
	if ev := file.TraceEvents[byName["plan"]]; ev.TID != 0 {
		t.Errorf("control span not tid 0: %+v", ev)
	}
}

func TestNilTraceAndZeroSpanAreInert(t *testing.T) {
	var tr *Trace
	s := tr.Start(Span{}, "x")
	if s.Active() {
		t.Fatal("span on nil trace is active")
	}
	s.End()
	s.Child("y").End()
	tr.Instant(s, "z")
	if sp := s.ChildOn(1, "w"); sp.Active() {
		t.Fatal("lane child of the zero span is active")
	}
	if tr.Coverage(s) != 0 || tr.Name() != "" || tr.Dropped() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	if got := tr.TextString(); got != "(no trace)\n" {
		t.Fatalf("nil text export = %q", got)
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil || !strings.Contains(sb.String(), "traceEvents") {
		t.Fatalf("nil chrome export: %v %q", err, sb.String())
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := NewTrace("cap")
	tr.SetMaxSpans(3)
	root := tr.Start(Span{}, "root")
	root.End()
	for i := 0; i < 5; i++ {
		tr.Start(root, "s").End()
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if n := len(tr.Spans()); n != 3 {
		t.Fatalf("recorded %d spans, want 3", n)
	}
}

func TestCoverage(t *testing.T) {
	tr := NewTrace("cov")
	root := tr.Start(Span{}, "root")
	// Two leaves covering disjoint halves with a gap, plus a parent span
	// that must NOT count (its children do), plus an overlap.
	complete := func(s Span, start, end time.Duration) {
		tr.mu.Lock()
		tr.completeLocked(SpanEvent{Kind: EventEnd, Span: s.id, Parent: s.parent, Name: s.name, Start: start, End: end})
		tr.mu.Unlock()
	}
	mk := func(start, end time.Duration, parent Span, name string) Span {
		s := tr.Start(parent, name)
		complete(s, start, end)
		return s
	}
	mid := mk(0, 100*time.Millisecond, root, "phase") // becomes a parent
	mk(0, 40*time.Millisecond, mid, "a")
	mk(30*time.Millisecond, 60*time.Millisecond, mid, "b") // overlaps a
	mk(80*time.Millisecond, 100*time.Millisecond, root, "c")
	// Close root at exactly 100ms.
	complete(root, 0, 100*time.Millisecond)
	// Union of leaves: [0,60) ∪ [80,100) = 80ms of 100ms.
	if got := tr.Coverage(root); got < 0.79 || got > 0.81 {
		t.Fatalf("coverage = %v, want 0.8", got)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTrace("ctx")
	root := tr.Start(Span{}, "root")
	ctx := ContextWithSpan(context.Background(), root)
	got := SpanFromContext(ctx)
	if got.ID() != root.ID() || got.Trace() != tr {
		t.Fatal("span did not round-trip through context")
	}
	if s := SpanFromContext(context.Background()); s.Active() {
		t.Fatal("empty context produced an active span")
	}
	if ctx2 := ContextWithSpan(context.Background(), Span{}); ctx2 != context.Background() {
		t.Fatal("inert span should not wrap the context")
	}
}

// Spans may start and end on different goroutines while workers record
// on their own lanes concurrently; this must be race-free (run under
// -race in CI).
func TestConcurrentRecording(t *testing.T) {
	tr := NewTrace("conc")
	root := tr.Start(Span{}, "root")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(lane int32) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := root.ChildOn(lane, "cell")
				tr.Instant(root, "mark")
				sp.End()
			}
		}(int32(w + 1))
	}
	wg.Wait()
	root.End()
	if n := len(tr.Spans()); n != 4*200+1 {
		t.Fatalf("recorded %d spans, want %d", n, 4*200+1)
	}
	if cov := tr.Coverage(root); cov <= 0 || cov > 1 {
		t.Fatalf("coverage out of range: %v", cov)
	}
}

// Spans lists every completed span in the log as a completed-span event
// with its attributes and lane; a span never ended, or dropped over the
// cap, is absent.
func TestSpans(t *testing.T) {
	if got := (*Trace)(nil).Spans(); got != nil {
		t.Fatalf("nil trace listed %d spans", len(got))
	}
	tr := NewTrace("spans")
	tr.SetMaxSpans(3)
	root := tr.Start(Span{}, "root") // never ended
	ctl := root.Child("ctl")
	ctl.End(StrAttr("outcome", "done"))
	cell := ctl.ChildOn(1, "cell")
	cell.End(IntAttr("cells", 2))
	tr.Instant(root, "mark", StrAttr("how", "test"))
	tr.Start(root, "over").End() // the fourth recorded span: over the cap

	type want struct {
		parent SpanID
		tid    int32
		attr   Attr
	}
	wants := map[string]want{
		"ctl":  {root.ID(), 0, StrAttr("outcome", "done")},
		"cell": {ctl.ID(), 1, IntAttr("cells", 2)},
		"mark": {root.ID(), 0, StrAttr("how", "test")},
	}
	got := tr.Spans()
	if len(got) != len(wants) {
		t.Fatalf("Spans listed %d spans, want %d: %+v", len(got), len(wants), got)
	}
	for _, ev := range got {
		w, ok := wants[ev.Name]
		if !ok {
			t.Errorf("Spans listed %q, which was never recorded", ev.Name)
			continue
		}
		delete(wants, ev.Name)
		if ev.Parent != w.parent || ev.Tid != w.tid {
			t.Errorf("%s: parent %d tid %d, want parent %d tid %d", ev.Name, ev.Parent, ev.Tid, w.parent, w.tid)
		}
		if len(ev.Attrs) != 1 || ev.Attrs[0] != w.attr {
			t.Errorf("%s: attrs %+v, want [%+v]", ev.Name, ev.Attrs, w.attr)
		}
		if ev.End < ev.Start || (ev.Kind == EventInstant) != (ev.End == ev.Start) || (ev.Kind != EventInstant && ev.Kind != EventEnd) {
			t.Errorf("%s: kind %s over [%v, %v]", ev.Name, ev.Kind, ev.Start, ev.End)
		}
		if ev.Name == "mark" && ev.Kind != EventInstant {
			t.Errorf("instant listed as %s", ev.Kind)
		}
	}
	if tr.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", tr.Dropped())
	}
}
