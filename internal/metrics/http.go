package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler that serves the registry in Prometheus
// text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// MuxOptions extends the observability mux beyond /metrics and /healthz.
type MuxOptions struct {
	// Pprof, when true, mounts the net/http/pprof profiling handlers
	// under /debug/pprof/. Opt-in: profiling endpoints expose stack
	// traces and heap contents, so they stay off unless asked for.
	Pprof bool
	// Extra maps additional patterns (e.g. "/debug/traces") to handlers.
	Extra map[string]http.Handler
}

// MuxOpts returns a ServeMux with the standard observability endpoints —
// /metrics (Prometheus text exposition) and /healthz (liveness, "ok") —
// plus the optional pprof handlers and extra routes.
func MuxOpts(r *Registry, o MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	if o.Pprof {
		// Explicit registrations instead of the pprof package's
		// DefaultServeMux side effect, so the endpoints exist only on
		// muxes that asked for them.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for pattern, h := range o.Extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// ServeOpts starts the scrape surface — MuxOpts's endpoints — on addr (use
// host:0 for an ephemeral port) and returns the bound listener address plus
// a shutdown func. The server runs on its own goroutine; ServeOpts returns
// immediately.
func ServeOpts(addr string, r *Registry, o MuxOptions) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: MuxOpts(r, o)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
