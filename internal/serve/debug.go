package serve

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// DebugHandler returns the opt-in debug mux: the net/http/pprof
// endpoints under /debug/pprof/, and GET /debug/traces, which answers
// the tracer's retained spans (obs.Tracer.Spans: open traces, the ring
// of recent ones and the tail set) as JSONL, the format cmd/trace
// reads. It is deliberately NOT part of the service handler — profiles
// and traces expose heap contents and request detail and must never
// ride on the public listener. cmd/serve and cmd/cluster mount it on a
// separate listener only when -debug-addr is set; the explicit
// handler registrations below (rather than the package's init side
// effect on http.DefaultServeMux) keep the main mux clean, which
// TestDebugEndpointsAbsentFromMainMux pins down.
func DebugHandler(tracer *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := obs.WriteJSONL(w, tracer.Spans()); err != nil {
			return // mid-stream failure; the status line is already written
		}
	})
	return mux
}
