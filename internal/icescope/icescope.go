// Package icescope is the observability layer of the serving stack: a
// span recorder for end-to-end job tracing, a unified metrics registry
// rendered in Prometheus exposition format, and profiling hooks — all
// provably off the determinism path. Nothing in this package touches a
// simulation kernel, an RNG, or a result byte: tracing and metrics read
// wall clocks and write to side buffers, so results are byte-identical
// with observability on or off (the differential suite holds the stack
// to that).
//
// The three pieces:
//
//   - Trace/Span: a span recorder. A trace is one append-only log of
//     span events (start, end, instant) under one mutex; spans may
//     start and end on different goroutines, and ChildOn puts a span on
//     its own Chrome lane. Live readers follow the log by position
//     (EventsFrom) until Close. Traces export their completed spans as
//     a text tree or as Chrome trace-event JSON loadable in Perfetto,
//     and Coverage reports how much of a root span's wall time its leaf
//     spans attribute.
//
//   - Registry/Counter/Gauge/Histogram: generic metric types (atomic,
//     zero-alloc on the hot path) replacing per-package hand-rolled
//     structs, with one Prometheus-exposition writer emitting HELP and
//     TYPE lines; Lint validates any exposition text.
//
//   - DebugMux: an http mux bundling net/http/pprof with a registry's
//     /metrics for the daemons' -pprof flag.
package icescope

import (
	"net/http"
	"net/http/pprof"
)

// DebugMux serves the standard net/http/pprof endpoints (profile, heap,
// goroutine, trace, ...) plus, when reg is non-nil, the registry's
// Prometheus exposition at /metrics. The daemons hang this off their
// -pprof flag so profiling never shares a listener with the serving API.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(reg.Expose()))
		})
	}
	return mux
}
