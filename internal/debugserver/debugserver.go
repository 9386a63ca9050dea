// Package debugserver serves Go's net/http/pprof profiling endpoints on
// a dedicated listener, kept off the serving mux on purpose: profiling
// handlers are unauthenticated and can be expensive (a CPU profile
// blocks for its whole sample window), so they bind to an operator-only
// address — typically localhost — that production traffic never reaches.
//
// Both daemons wire it behind the -debug-addr flag; empty disables it.
package debugserver

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Mount is an extra handler to serve from the debug listener — admin
// surfaces that belong on the operator-only address for the same reason
// pprof does (svwd's /admin/backends membership endpoint, for one).
type Mount struct {
	// Pattern in http.ServeMux syntax, e.g. "/admin/backends" or
	// "POST /admin/backends".
	Pattern string
	Handler http.Handler
}

// Handler returns a mux serving the standard pprof surface under
// /debug/pprof/ plus any extra mounts. The handlers are registered on an
// explicit mux so the debug surface lives entirely on its own listener;
// the daemons never serve http.DefaultServeMux (which net/http/pprof's
// import also populates as an init side effect), so nothing leaks onto a
// serving port.
func Handler(mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
	}
	return mux
}

// Serve listens on addr and serves the pprof surface (plus mounts) until
// the listener fails (usually: the process exits). It returns the bound
// listener — addr may end in :0 — or an error when the address cannot be
// bound; serving itself proceeds on a background goroutine, errors
// discarded, because a dying debug listener must never take the daemon
// with it.
func Serve(addr string, mounts ...Mount) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(mounts...)}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
