package icescope

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteText renders the trace as an indented tree, one span per line:
//
//	job req-1                      41.2ms
//	  plan                         0.1ms  shards=4
//	  shard 0 [3:5] node-a         18.3ms
//	    cell 3 build               0.2ms
//	    cell 3 run                 8.9ms
//
// Spans sort by start time within their parent; orphans (parent never
// recorded, e.g. dropped over the cap) print at top level.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "(no trace)\n")
		return err
	}
	spans := t.Spans()
	byID := make(map[SpanID]*SpanEvent, len(spans))
	for i := range spans {
		byID[spans[i].Span] = &spans[i]
	}
	kids := make(map[SpanID][]*SpanEvent, len(spans))
	var roots []*SpanEvent
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != 0 && byID[sp.Parent] != nil {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	order := func(list []*SpanEvent) {
		sort.SliceStable(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	order(roots)
	for _, list := range kids {
		order(list)
	}
	if _, err := fmt.Fprintf(w, "trace %s  %d spans", t.name, len(spans)); err != nil {
		return err
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "  (%d dropped)", d); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	var walk func(sp *SpanEvent, depth int) error
	walk = func(sp *SpanEvent, depth int) error {
		label := sp.Name
		if sp.End == sp.Start {
			label += " !" // instant marker
		}
		pad := 48 - 2*depth - len(label)
		if pad < 1 {
			pad = 1
		}
		line := fmt.Sprintf("%s%s%s%9.3fms%s\n",
			strings.Repeat("  ", depth), label, strings.Repeat(" ", pad),
			float64(sp.End-sp.Start)/float64(time.Millisecond), attrText(sp.Attrs))
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
		for _, k := range kids[sp.Span] {
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 1); err != nil {
			return err
		}
	}
	return nil
}

func attrText(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		b.WriteString("  ")
		b.WriteString(a.Key)
		b.WriteByte('=')
		if a.isStr {
			b.WriteString(a.Str)
		} else {
			b.WriteString(fmtFloat(a.Num))
		}
	}
	return b.String()
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" = complete span, ph "i" = instant), loadable in Perfetto or
// chrome://tracing. Timestamps are microseconds from the trace epoch.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// WriteChrome exports the trace as Chrome trace-event JSON. Each span
// lands on its lane's tid (0 unless opened with ChildOn), so Perfetto
// shows a fleet pool's slots as parallel rows.
func (t *Trace) WriteChrome(w io.Writer) error {
	file := chromeFile{TraceEvents: []chromeEvent{}}
	if t != nil {
		spans := t.Spans()
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := range spans {
			sp := &spans[i]
			ev := chromeEvent{
				Name: sp.Name, Phase: "X",
				TS:  float64(sp.Start) / float64(time.Microsecond),
				PID: 1, TID: sp.Tid,
			}
			if sp.End == sp.Start {
				ev.Phase, ev.Scope = "i", "t"
			} else {
				dur := float64(sp.End-sp.Start) / float64(time.Microsecond)
				ev.Dur = &dur
			}
			if len(sp.Attrs) > 0 {
				ev.Args = make(map[string]any, len(sp.Attrs))
				for _, a := range sp.Attrs {
					if a.isStr {
						ev.Args[a.Key] = a.Str
					} else {
						ev.Args[a.Key] = a.Num
					}
				}
			}
			file.TraceEvents = append(file.TraceEvents, ev)
		}
		file.Metadata = map[string]any{
			"trace-name": t.name,
			"epoch-wall": t.wall.UTC().Format(time.RFC3339Nano),
			"dropped":    t.Dropped(),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&file)
}

// TextString is WriteText into a string (convenience for handlers/tests).
func (t *Trace) TextString() string {
	var b strings.Builder
	_ = t.WriteText(&b)
	return b.String()
}

// Spans returns every completed span in the log, in log order: an
// EventEnd for a span ended, an EventInstant for a marker. Spans never
// ended or dropped over the cap are absent.
func (t *Trace) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, t.spans)
	for _, ev := range t.log {
		if ev.Kind != EventStart {
			out = append(out, ev)
		}
	}
	return out
}
