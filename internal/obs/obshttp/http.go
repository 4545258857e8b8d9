// Package obshttp is the wall-clock edge of the observability subsystem:
// an HTTP mux exposing a Registry and Journal to operators. It is the one
// obs component allowed to touch real time (scrape timestamps, uptime) —
// it runs on the serving goroutine, never inside the simulation, and
// nothing in the simulation reads from it. The repository's wall-clock
// check (TestNoWallClock at the module root) exempts this package for
// exactly that reason; the obs core it exports stays subject to it.
//
// Endpoints:
//
//	/metrics     Prometheus text exposition format 0.0.4
//	/healthz     liveness JSON (status, wall-clock uptime)
//	/debug/vars  full JSON snapshot of the registry plus the journal tail
//	/debug/pprof the standard net/http/pprof profiles
package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"lifeguard/internal/obs"
)

// NewMux builds the observability mux over a registry and an optional
// journal. Both may be nil (endpoints then serve empty documents), so a
// daemon can expose the surface unconditionally and wire obs on or off
// with one flag.
func NewMux(reg *obs.Registry, j *obs.Journal) *http.ServeMux {
	start := time.Now() // wall clock: operator-facing uptime, outside the simulation
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		if err := reg.Snapshot().WritePrometheus(w); err != nil {
			// Headers are gone; nothing to do but note it mid-stream.
			fmt.Fprintf(w, "# error: %v\n", err)
		}
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
		})
	})

	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := map[string]any{"snapshot": reg.Snapshot()}
		if j.Enabled() {
			doc["journal"] = map[string]any{
				"len":     j.Len(),
				"cap":     j.Cap(),
				"dropped": j.Dropped(),
				"events":  j.Events(),
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// Serve runs the mux on addr until the listener fails. It is a
// convenience for daemons: call it on its own goroutine and forget it —
// the process's lifetime is managed elsewhere (signals), and the server
// dies with the process.
func Serve(addr string, mux *http.ServeMux) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return srv.ListenAndServe()
}
