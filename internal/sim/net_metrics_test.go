package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spotdc/internal/metrics"
	"spotdc/internal/proto"
)

// TestNetRunMetricsMatchFaultSchedule runs the seeded Section III-C fault
// schedule with a metrics registry attached and asserts the scrape-surface
// fault counters agree EXACTLY with the injectors' own statistics (and that
// both are non-zero, so the assertion has teeth). The fault schedule is a
// pure function of its seeds, so this pins the protocol instrumentation to
// the ground truth: every injected drop/delay/sever is counted once.
func TestNetRunMetricsMatchFaultSchedule(t *testing.T) {
	reg := metrics.NewRegistry()
	var journal bytes.Buffer
	sc := testbedScenario(t, TestbedOptions{Seed: 17, Slots: 220})
	res, err := NetRun(sc, NetRunOptions{
		SlotLen: 15 * time.Millisecond,
		BidFaults: proto.FaultPlan{
			Seed: 1, DropProb: 0.08, DelayProb: 0.05, MaxDelay: 3 * time.Millisecond, SeverProb: 0.02,
		},
		BroadcastFaults: proto.FaultPlan{
			Seed: 2, DropProb: 0.05, DelayProb: 0.05, MaxDelay: 3 * time.Millisecond, SeverProb: 0.01,
		},
		ErrorSlots:             []int{60},
		MaxConsecutiveFailures: 5,
		Reconnect:              true,
		SessionTTL:             150 * time.Millisecond,
		Registry:               reg,
		Journal:                metrics.NewJournal(&journal),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth from the injectors themselves.
	wantDrops := res.BidFaults.Drops + res.BroadcastFaults.Drops
	wantDelays := res.BidFaults.Delays + res.BroadcastFaults.Delays
	wantSevers := res.BidFaults.Severs + res.BroadcastFaults.Severs
	if wantDrops == 0 || wantSevers == 0 {
		t.Fatalf("fault schedule never fired (drops=%d severs=%d) — the match below would be vacuous",
			wantDrops, wantSevers)
	}
	for _, tc := range []struct {
		kind string
		want int64
	}{
		{"drop", wantDrops},
		{"delay", wantDelays},
		{"sever", wantSevers},
	} {
		got, ok := reg.Value("spotdc_proto_faults_injected_total", tc.kind)
		if tc.want == 0 {
			// A kind that never fired may legitimately have no child yet.
			if ok && got != 0 {
				t.Errorf("faults_injected{kind=%q} = %v, want 0", tc.kind, got)
			}
			continue
		}
		if !ok || int64(got) != tc.want {
			t.Errorf("faults_injected{kind=%q} = %v (ok=%v), want exactly %d", tc.kind, got, ok, tc.want)
		}
	}

	// The slot counters must account for every slot of the run.
	cleared, _ := reg.Value("spotdc_operator_slots_total", "cleared")
	degraded, _ := reg.Value("spotdc_operator_slots_total", "degraded")
	breakerOpen, _ := reg.Value("spotdc_operator_slots_total", "breaker_open")
	if int(cleared) != res.Cleared {
		t.Errorf("slots_total{cleared} = %v, want %d", cleared, res.Cleared)
	}
	if int(degraded)+int(breakerOpen) != res.SlotErrors {
		t.Errorf("slots_total{degraded}+{breaker_open} = %v+%v, want %d",
			degraded, breakerOpen, res.SlotErrors)
	}

	// Market clearings: one per cleared slot, none lost.
	clears := 0.0
	for _, engine := range []string{"scan", "exact"} {
		if v, ok := reg.Value("spotdc_market_clears_total", engine); ok {
			clears += v
		}
	}
	if int(clears) != res.Cleared {
		t.Errorf("market_clears_total = %v, want %d", clears, res.Cleared)
	}

	// Reconnects: the registry total equals the per-tenant sum.
	wantReconnects := 0
	for _, ts := range res.Tenants {
		wantReconnects += ts.Reconnects
	}
	gotReconnects, _ := reg.Value("spotdc_proto_client_reconnects_total")
	if int(gotReconnects) != wantReconnects {
		t.Errorf("client_reconnects_total = %v, want %d", gotReconnects, wantReconnects)
	}

	// The journal opens with a schema-v2 header line, then carries one line
	// per slot; its fault counters end at the injector totals.
	hdr, events, err := metrics.ReadJournal(strings.NewReader(journal.String()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || hdr.Schema != metrics.JournalSchemaV3 {
		t.Fatalf("journal header = %+v, want schema %s", hdr, metrics.JournalSchemaV3)
	}
	if len(events) != 220 {
		t.Fatalf("journal has %d events, want 220", len(events))
	}
	last := events[len(events)-1]
	if last.Slot != 219 {
		t.Errorf("last journal slot = %d, want 219", last.Slot)
	}
	// The last line's cumulative fault counts are stamped at broadcast
	// time; a reconnect racing the shutdown can add a handful of writes
	// after that, so the journal trails the injector totals by at most
	// those stragglers — never exceeds them, and is never zero here.
	if last.FaultDrops == 0 || last.FaultDrops > wantDrops ||
		last.FaultDelays > wantDelays || last.FaultSevers > wantSevers {
		t.Errorf("journal final fault counts = %d/%d/%d, want >0 and <= %d/%d/%d",
			last.FaultDrops, last.FaultDelays, last.FaultSevers, wantDrops, wantDelays, wantSevers)
	}
	degradedLines := 0
	for _, ev := range events {
		if ev.Degraded {
			degradedLines++
		}
	}
	if degradedLines != res.SlotErrors {
		t.Errorf("journal degraded lines = %d, want %d", degradedLines, res.SlotErrors)
	}
}

// TestNetRunMetricsOffIsDefault asserts an uninstrumented run works exactly
// as before — the registry and journal are strictly opt-in.
func TestNetRunMetricsOffIsDefault(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 21, Slots: 10})
	res, err := NetRun(sc, NetRunOptions{SlotLen: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleared != 10 {
		t.Errorf("cleared = %d, want 10", res.Cleared)
	}
}
