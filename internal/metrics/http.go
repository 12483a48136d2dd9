package metrics

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns the debug HTTP mux served by `vsql -debug-addr`: the
// engine metrics as plain text at /metrics (the same Snapshot that backs
// v_monitor.metrics — the registry has exactly these two sinks) and the full
// net/http/pprof suite at /debug/pprof/. Everything is read-only; the
// listener is opt-in and meant for operators, not clients.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, s := range r.Snapshot() {
			fmt.Fprintf(w, "%s{kind=%q} %d\n", s.Name, s.Kind, s.Value)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
