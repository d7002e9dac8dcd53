// Package admin builds the HTTP surface of a daemon's private admin
// listener: the metrics registry and the Go runtime's profiles. It is its
// own package so that importing net/http/pprof - which also registers on
// http.DefaultServeMux as a side effect - stays out of every library that
// imports obs for its instruments.
package admin

import (
	"net/http"
	"net/http/pprof"

	"anycastmap/internal/obs"
)

// Mux serves the registry at GET /metrics and the runtime's profiles under
// /debug/pprof/ (heap, goroutine, allocs, ... through the index handler;
// `go tool pprof http://addr/debug/pprof/profile?seconds=30` for CPU). It
// belongs on an address only operators reach, never on a public listener.
func Mux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
