package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMuxPprofGating pins the opt-in profiling surface: /debug/pprof/*
// serves only when MuxOptions.Pprof is set, Extra routes mount alongside
// the standard endpoints, and the default mux stays pprof-free.
func TestMuxPprofGating(t *testing.T) {
	get := func(t *testing.T, addr, path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	r := NewRegistry()
	r.Counter("gated_total", "gating probe").Add(1)

	// Default surface: metrics and health only.
	addr, shutdown, err := ServeOpts("127.0.0.1:0", r, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if code, _ := get(t, addr, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("ungated /debug/pprof/ = %d, want 404", code)
	}
	if code, _ := get(t, addr, "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("ungated /debug/pprof/cmdline = %d, want 404", code)
	}

	// Opted in: the pprof index and profiles serve, Extra routes mount,
	// and the standard endpoints keep working.
	extra := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("traces here\n"))
	})
	addr2, shutdown2, err := ServeOpts("127.0.0.1:0", r, MuxOptions{
		Pprof: true,
		Extra: map[string]http.Handler{"/debug/traces": extra},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown2()
	if code, body := get(t, addr2, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("gated /debug/pprof/ = %d, body %.60q; want 200 with profile index", code, body)
	}
	if code, body := get(t, addr2, "/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Errorf("gated goroutine profile = %d, body %.60q", code, body)
	}
	if code, body := get(t, addr2, "/debug/traces"); code != http.StatusOK || body != "traces here\n" {
		t.Errorf("/debug/traces = %d %q, want the Extra handler", code, body)
	}
	if code, body := get(t, addr2, "/metrics"); code != http.StatusOK || !strings.Contains(body, "gated_total 1") {
		t.Errorf("/metrics with pprof on = %d, body %.60q", code, body)
	}
	if _, body := get(t, addr2, "/healthz"); body != "ok\n" {
		t.Errorf("/healthz with pprof on = %q", body)
	}
}
