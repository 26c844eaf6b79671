package icegate

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/icescope"
)

// TenantHeader carries the tenant identity on API requests; when set it
// overrides the request body's "tenant" field.
const TenantHeader = "X-Icegate-Tenant"

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, never below one (zero would invite a tight retry loop).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// NewHandler wires the gateway's HTTP/JSON API around a scheduler.
//
//	GET    /healthz                  liveness
//	GET    /api/v1/scenarios         servable fleet scenarios + experiment IDs
//	POST   /api/v1/jobs              submit a job (429 when the queue is full)
//	GET    /api/v1/jobs              list jobs, submission order
//	GET    /api/v1/jobs/{id}         job status
//	DELETE /api/v1/jobs/{id}         cancel a queued or running job
//	GET    /api/v1/jobs/{id}/result  rendered table (text/plain) once done
//	GET    /api/v1/jobs/{id}/stream  per-cell results as NDJSON, live
//	GET    /api/v1/jobs/{id}/trace   span trace once terminal (text tree, or
//	                                 ?format=chrome for Perfetto-loadable JSON);
//	                                 only for jobs submitted with "trace": true
//	GET    /api/v1/jobs/{id}/events  live span events as NDJSON while the job
//	                                 is queued/running (terminal jobs replay
//	                                 and close); only for traced jobs
//	GET    /metrics                  gateway counters, Prometheus text style
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /api/v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{
			"scenarios":   fleet.Names(),
			"experiments": experiments.IDs(),
		})
	})
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		// The header is the authoritative tenant identity when present
		// (proxies stamp it); the body field serves clients that cannot
		// set headers.
		if hdr := r.Header.Get(TenantHeader); hdr != "" {
			req.Tenant = hdr
		}
		job, err := s.Submit(req)
		var qe *QuotaError
		switch {
		case errors.As(err, &qe):
			w.Header().Set("Retry-After", retryAfterSeconds(qe.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusCreated, job.View())
		}
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		views := make([]View, len(jobs))
		for i, j := range jobs {
			views[i] = j.View()
		}
		writeJSON(w, http.StatusOK, map[string][]View{"jobs": views})
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := s.Get(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, job.View())
			return
		}
		writeError(w, http.StatusNotFound, "unknown job")
	})
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		job, _ := s.Get(r.PathValue("id"))
		writeJSON(w, http.StatusOK, job.View())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job")
			return
		}
		v := job.View()
		switch v.Status {
		case StatusDone:
			table, _ := job.Table()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Header().Set("X-Icegate-Cached", boolHeader(v.Cached))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(table))
		case StatusFailed, StatusCancelled:
			writeJSON(w, http.StatusConflict, v)
		default:
			writeJSON(w, http.StatusAccepted, v)
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job")
			return
		}
		follow(w, r, job.cellsFrom,
			func(c *CellResult) any { return streamLine{Cell: c} },
			func() any {
				v := job.View()
				return streamLine{Done: true, Status: v.Status, Cached: v.Cached, Error: v.Error}
			})
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job")
			return
		}
		if !job.Traced() {
			writeError(w, http.StatusNotFound, "job was not submitted with trace enabled")
			return
		}
		follow(w, r, job.tr.EventsFrom, eventLine,
			func() any { return EventLine{Done: true, Status: job.Status(), Dropped: job.tr.Dropped()} })
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job")
			return
		}
		if !job.Traced() {
			writeError(w, http.StatusNotFound, "job was not submitted with trace enabled")
			return
		}
		tr := job.TraceData()
		if tr == nil {
			// The trace is a complete record only once the job has ended;
			// tell the client to come back (or to follow /events).
			writeJSON(w, http.StatusAccepted, job.View())
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_ = tr.WriteChrome(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = tr.WriteText(w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.renderMetrics()))
	})
	return mux
}

// streamLine is one NDJSON record: a cell while the job runs, then a
// single terminal record carrying the final status.
type streamLine struct {
	Cell   *CellResult `json:"cell,omitempty"`
	Done   bool        `json:"done,omitempty"`
	Status Status      `json:"status,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// follow writes a job log as NDJSON, one flushed batch at a time: every
// entry from position 0 on, read with from as it lands, then the last
// line once from reports the log closed. It stops early when a write
// fails or the client goes away. /stream follows a job's cells and
// /events its trace.
func follow[T any](w http.ResponseWriter, r *http.Request, from func(int) ([]T, <-chan struct{}, bool), line func(*T) any, last func() any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Push the headers out now: clients block on them before reading the
	// first NDJSON line, which may be a long simulation away.
	flush()
	enc := json.NewEncoder(w)
	for i := 0; ; {
		entries, wait, closed := from(i)
		for k := range entries {
			if enc.Encode(line(&entries[k])) != nil {
				return
			}
		}
		i += len(entries)
		if closed {
			_ = enc.Encode(last())
			flush()
			return
		}
		flush()
		if wait != nil {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// EventLine is one NDJSON record of a job's span-event stream: an event
// of the job's trace, then a single terminal record carrying the final
// status and the trace's drop count. Offsets are microseconds from the
// job trace's epoch, matching the Chrome export's unit.
type EventLine struct {
	Seq     uint64         `json:"seq,omitempty"`
	Kind    string         `json:"kind,omitempty"`
	Span    uint64         `json:"span,omitempty"`
	Parent  uint64         `json:"parent,omitempty"`
	Tid     int32          `json:"tid,omitempty"`
	Name    string         `json:"name,omitempty"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Done    bool           `json:"done,omitempty"`
	Status  Status         `json:"status,omitempty"`
	Dropped uint64         `json:"dropped,omitempty"`
}

func eventLine(ev *icescope.SpanEvent) any {
	l := EventLine{
		Seq: ev.Seq, Kind: ev.Kind.String(), Span: uint64(ev.Span), Parent: uint64(ev.Parent),
		Tid: ev.Tid, Name: ev.Name,
		StartUS: float64(ev.Start) / float64(time.Microsecond),
		EndUS:   float64(ev.End) / float64(time.Microsecond),
	}
	if len(ev.Attrs) > 0 {
		l.Attrs = make(map[string]any, len(ev.Attrs))
		for _, a := range ev.Attrs {
			l.Attrs[a.Key] = a.Value()
		}
	}
	return l
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func boolHeader(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
