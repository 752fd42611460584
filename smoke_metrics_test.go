// Smoke test for the observability surface (make smoke-metrics): a short
// networked market run with a live /metrics endpoint, scraped MID-RUN —
// while slots are still clearing — and again after completion. This is the
// end-to-end proof that the scrape surface is wired through the public API
// (registry → operator/market/proto handles → HTTP exposition) and is safe
// to read concurrently with a running market.
package spotdc_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"spotdc/internal/metrics"
	"spotdc/internal/sim"
)

func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	return string(body)
}

func TestSmokeMetricsScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	addr, shutdown, err := metrics.ServeOpts("127.0.0.1:0", reg, metrics.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 7, Slots: 80})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *sim.NetResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sim.NetRun(sc, sim.NetRunOptions{
			SlotLen:  20 * time.Millisecond,
			Registry: reg,
		})
		done <- outcome{res, err}
	}()

	// Mid-run scrape: poll until the operator has cleared at least one
	// slot but the run (80 slots ≈ 1.6 s) is still in flight.
	deadline := time.Now().Add(10 * time.Second)
	var midrun string
	for {
		if time.Now().After(deadline) {
			t.Fatal("operator never cleared a slot within 10s")
		}
		if v, ok := reg.Value("spotdc_operator_slots_total", "cleared"); ok && v >= 1 {
			midrun = scrape(t, addr)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, family := range []string{
		"spotdc_market_clears_total",
		"spotdc_market_clear_seconds_count",
		"spotdc_operator_slots_total",
		"spotdc_operator_spot_predicted_watts",
		"spotdc_proto_sessions_active",
		"spotdc_proto_bids_accepted_total",
	} {
		if !strings.Contains(midrun, family) {
			t.Errorf("mid-run scrape missing family %s", family)
		}
	}

	// /healthz answers while the market runs.
	hresp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if string(hbody) != "ok\n" {
		t.Errorf("/healthz = %q mid-run", hbody)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Cleared != 80 {
		t.Errorf("cleared = %d, want 80", out.res.Cleared)
	}
	// Final scrape agrees with the run's own accounting.
	if v, ok := reg.Value("spotdc_operator_slots_total", "cleared"); !ok || int(v) != out.res.Cleared {
		t.Errorf("slots_total{cleared} = %v (ok=%v), want %d", v, ok, out.res.Cleared)
	}
}
