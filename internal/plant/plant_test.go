package plant

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/power"
	"spotdc/internal/trace"
	"spotdc/internal/wal"
)

// testConfig is a two-rack, one-PDU market on 2 ms slots.
func testConfig(t *testing.T) Config {
	t.Helper()
	topo, err := power.NewTopology(1370,
		[]power.PDU{{ID: "PDU#1", Capacity: 715}},
		[]power.Rack{
			{ID: "S-1", Tenant: "sprint", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-1", Tenant: "opp", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
		})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology:      topo,
		MarketOptions: core.Options{PriceStep: 0.001},
		OtherLoad:     []*trace.Power{{Watts: []float64{180, 190, 170}}},
		SlotLen:       2 * time.Millisecond,
		Listen:        "127.0.0.1:0",
		Audit:         true,
	}
}

// lifetime opens a plant, runs n slots from where it resumed, and closes
// it, failing the test on any error. It returns the slot it resumed at.
func lifetime(t *testing.T, cfg Config, n int) int {
	t.Helper()
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := p.Recovered.NextSlot
	if !p.Loop.Clock.StartOf(next).After(time.Now()) {
		t.Errorf("first live slot %d starts in the past", next)
	}
	if _, err := p.Loop.RunSlots(next, n); err != nil {
		t.Fatal(err)
	}
	walErr, journalErr, auditErr := p.Close()
	for _, err := range []error{walErr, journalErr, auditErr} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return next
}

// journalLines returns the journal's header and event line counts.
func journalLines(t *testing.T, path string) (headers, events int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.Contains(line, `"schema"`) {
			headers++
		} else {
			events++
		}
	}
	return headers, events
}

func TestOpenResumesDurableState(t *testing.T) {
	cfg := testConfig(t)
	cfg.Options = wal.Options{Dir: filepath.Join(t.TempDir(), "state"), Policy: wal.SyncEverySlot}
	cfg.JournalPath = filepath.Join(t.TempDir(), "slots.jsonl")

	if next := lifetime(t, cfg, 3); next != 0 {
		t.Fatalf("fresh state directory resumed at slot %d, want 0", next)
	}
	if next := lifetime(t, cfg, 2); next != 3 {
		t.Fatalf("reopen resumed at slot %d, want 3", next)
	}
	if headers, events := journalLines(t, cfg.JournalPath); headers != 1 || events != 5 {
		t.Fatalf("journal across two lifetimes: %d header(s), %d events; want 1 and 5", headers, events)
	}
	f, err := os.Open(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, evs, err := metrics.ReadJournal(f); err != nil || evs[4].Slot != 4 {
		t.Fatalf("journal does not read back as slots 0..4: %v", err)
	}
}

func TestOpenWithoutStateDirTruncatesJournal(t *testing.T) {
	cfg := testConfig(t)
	cfg.JournalPath = filepath.Join(t.TempDir(), "slots.jsonl")
	for i := 0; i < 2; i++ {
		if next := lifetime(t, cfg, 2); next != 0 {
			t.Fatalf("lifetime %d without a state directory resumed at slot %d", i, next)
		}
	}
	if headers, events := journalLines(t, cfg.JournalPath); headers != 1 || events != 2 {
		t.Fatalf("journal after two stateless lifetimes: %d header(s), %d events; want 1 and 2", headers, events)
	}
}

func TestOpenWithFreshStateDirTruncatesJournal(t *testing.T) {
	cfg := testConfig(t)
	cfg.Options = wal.Options{Dir: filepath.Join(t.TempDir(), "state"), Policy: wal.SyncEverySlot}
	cfg.JournalPath = filepath.Join(t.TempDir(), "slots.jsonl")
	lifetime(t, cfg, 3)

	// A wiped state directory starts the history over at slot 0, so the
	// old history's journal must not survive under the new one.
	cfg.Dir = filepath.Join(t.TempDir(), "state")
	if next := lifetime(t, cfg, 2); next != 0 {
		t.Fatalf("fresh state directory resumed at slot %d, want 0", next)
	}
	if headers, events := journalLines(t, cfg.JournalPath); headers != 1 || events != 2 {
		t.Fatalf("journal after a fresh state directory: %d header(s), %d events; want 1 and 2", headers, events)
	}
}

func TestOpenFailureReleasesEverything(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing", "slots.jsonl")
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"state dir is a file", func(c *Config) { c.Dir = notDir }},
		{"zero slot length", func(c *Config) { c.Dir = filepath.Join(t.TempDir(), "state"); c.SlotLen = 0 }},
		{"journal in a missing directory", func(c *Config) {
			c.Dir = filepath.Join(t.TempDir(), "state")
			c.JournalPath = missing
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			cfg := testConfig(t)
			cfg.Listen = addr
			tc.tweak(&cfg)
			if p, err := Open(cfg); err == nil {
				p.Kill()
				t.Fatal("Open succeeded")
			}
			// The server Open started is gone again, so its address is free.
			ln, err = net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("listener not released after a failed Open: %v", err)
			}
			ln.Close()
		})
	}
}

func TestReferenceReadingCappedAtRackBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.Emergency = true
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Kill()
	if len(p.Units) != 2 || !p.Loop.CheckEmergencies {
		t.Fatalf("emergencies armed with %d rack PDUs, check %v", len(p.Units), p.Loop.CheckEmergencies)
	}
	if err := p.Units[0].SetBudget(100); err != nil {
		t.Fatal(err)
	}
	rd := p.Loop.Reading(1)
	if rd.RackWatts[0] != 100 {
		t.Errorf("rack under a 100 W budget reads %v W", rd.RackWatts[0])
	}
	if want := 0.75 * 125.0; rd.RackWatts[1] != want {
		t.Errorf("uncapped rack reads %v W, want %v", rd.RackWatts[1], want)
	}
	if rd.OtherPDUWatts[0] != 190 {
		t.Errorf("other load at slot 1 reads %v W, want the trace's 190", rd.OtherPDUWatts[0])
	}
}
