// Command spotdc-operator runs the operator side of a networked SpotDC
// deployment (Fig. 5): it serves the market protocol on a TCP address and
// clears the market once per slot, broadcasting the price and grants to
// connected tenants.
//
// The power hierarchy is the paper's Table I testbed; background
// (non-participating) power is synthesized. Tenants connect with
// spotdc-tenant.
//
// Usage:
//
//	spotdc-operator [-listen 127.0.0.1:7070] [-slot-seconds 10] [-slots N] \
//	    [-metrics-addr host:port] [-events FILE] \
//	    [-state-dir DIR] [-fsync record|slot|timer] [-audit] [-emergency] [-v]
//
// The server speaks both wire encodings, answering each connection in
// whichever encoding it opened with (JSON or the compact binary frame).
//
// Observability: -metrics-addr serves Prometheus text metrics on
// GET /metrics (plus /healthz) covering market clearings, operator slot
// outcomes, protocol sessions and bid handling; -pprof additionally mounts
// the /debug/pprof/* profiling endpoints there; -events appends one JSON
// line per slot (price, volume, revenue, degradation) to FILE; -v enables
// verbose per-slot and protocol diagnostics (prefixed slot=N trace=ID so a
// log line joins its span tree), which are silent by default.
//
// Tracing: -trace-spans FILE records one span tree per slot — bid-window
// drain, prediction, clearing, feasibility audit, WAL commit, broadcast
// fan-out with per-session sends — as JSON lines; -trace-sample N head-
// samples every Nth slot (degraded, emergency and slowest-percentile slots
// are always kept). Convert the journal with spotdc-spans to open it in
// Perfetto, or browse the live ring at /debug/traces on -metrics-addr.
// Connected tenants' price broadcasts carry the slot's trace context, so
// tenant-side spans (spotdc tenant clients with a Tracer) parent under the
// same trace across both wire encodings.
//
// Emergency response: -emergency arms the Section III-C loop — every slot
// the operator checks measured load against breaker capacity (ride-through
// tolerance -breaker-tolerance); on an excursion it reclaims spot capacity
// proportionally to granted spot, resets rack PDU budgets, broadcasts the
// new budgets to connected tenants, and suspends spot sales at the affected
// element until -emergency-recovery-slots consecutive healthy readings.
// The demo's synthesized background trace stays below breaker capacity, so
// excursions come from real telemetry in a production deployment; the flag
// arms the loop and exercises the budget plumbing end to end.
//
// Durability: -state-dir DIR keeps the operator's books in a write-ahead
// log under DIR — one record per slot boundary, periodic snapshots
// (-snapshot-every), fsync policy -fsync (record, slot or timer; see
// -fsync-interval). On startup the operator recovers whatever a previous
// process committed and resumes the market at the next slot; torn final
// records from a crash are truncated and the slot re-runs. With -state-dir
// a resumed operator's -events journal opens in append mode so one journal
// file spans restarts; a fresh state dir starts a fresh one (-events-sync forces it to disk every N slots). SIGINT/SIGTERM
// stop the loop gracefully at the next slot boundary, then drain in order:
// WAL close (final fsync), journal sync, summaries. A second signal exits
// immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/plant"
	"spotdc/internal/power"
	"spotdc/internal/trace"
	"spotdc/internal/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to serve the market protocol on")
	slotSeconds := flag.Int("slot-seconds", 10, "market slot length in seconds (paper: 60-300; short for demos)")
	slots := flag.Int("slots", 0, "stop after this many slots (0 = run forever)")
	seed := flag.Int64("seed", 42, "background power trace seed")
	sessionTTL := flag.Duration("session-ttl", 0, "expire tenant sessions idle longer than this (0 = library default)")
	bidWindow := flag.Int("bid-window", 0, "accept bids at most this many slots ahead (0 = library default)")
	maxFailures := flag.Int("max-consecutive-failures", 0, "trip the breaker to no-spot after this many consecutive slot failures (0 = never)")
	breakerCooldown := flag.Int("breaker-cooldown-slots", 0, "slots to hold the breaker open before a half-open probe (0 = stay open)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (e.g. localhost:9090)")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof/* profiling endpoints on -metrics-addr")
	traceSpans := flag.String("trace-spans", "", "record slot-lifecycle trace spans as JSON lines to this file (convert with spotdc-spans)")
	traceSample := flag.Int("trace-sample", 1, "head-sample every Nth slot's trace (1 = all; degraded/emergency/slow slots are always kept)")
	eventsFile := flag.String("events", "", "append one JSON slot event per market slot to this file")
	eventsSync := flag.Int("events-sync", 0, "fsync the -events journal every N slots (0 = only at shutdown)")
	stateDir := flag.String("state-dir", "", "persist operator state (WAL + snapshots) under this directory and recover from it on startup")
	fsync := flag.String("fsync", "slot", "WAL fsync policy: record, slot or timer (with -state-dir)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "background fsync tick for -fsync timer (0 = library default)")
	snapshotEvery := flag.Int("snapshot-every", 0, "WAL snapshot cadence in committed slots (0 = library default)")
	auditRun := flag.Bool("audit", false, "re-verify clearing invariants inline on every slot and log violations")
	emergency := flag.Bool("emergency", false, "arm the emergency responder: reclaim spot capacity and reset rack PDU budgets on capacity excursions")
	breakerTol := flag.Float64("breaker-tolerance", 0.05, "breaker ride-through tolerance fraction before an excursion is an emergency (with -emergency)")
	escalation := flag.Float64("emergency-escalation", 0.5, "overload fraction beyond which guaranteed capacity is curtailed pro-rata (with -emergency)")
	recoverySlots := flag.Int("emergency-recovery-slots", 2, "consecutive healthy slots before a suspended element resumes spot sales (with -emergency)")
	resetDelay := flag.Duration("reset-delay", 0, "rack PDU budget-reset actuation delay (with -emergency)")
	verbose := flag.Bool("v", false, "verbose: per-slot results and protocol diagnostics (default: quiet)")
	flag.Parse()

	// Observability is opt-in: a nil registry disables every hook.
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
	}
	// -trace-spans: one tracer shared by the market loop, the server's
	// broadcast fan-out, and the operator's slot phases, journaled as JSON
	// lines (read them back with spotdc-spans or cmd/spotdc-audit -spans).
	var tracer *otrace.Tracer
	if *traceSpans != "" {
		f, err := os.Create(*traceSpans)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		var tm *otrace.TracerMetrics
		if reg != nil {
			tm = otrace.NewTracerMetrics(reg)
		}
		tracer = otrace.NewTracer(otrace.Options{
			SampleEvery: *traceSample,
			Journal:     f,
			Metrics:     tm,
		})
		log.Printf("spotdc-operator: tracing slot spans to %s (sample every %d)", *traceSpans, *traceSample)
	}
	if *metricsAddr != "" {
		muxOpts := metrics.MuxOptions{Pprof: *pprofOn}
		if tracer != nil {
			muxOpts.Extra = map[string]http.Handler{"/debug/traces": otrace.TraceHandler(tracer)}
		}
		bound, shutdown, err := metrics.ServeOpts(*metricsAddr, reg, muxOpts)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("spotdc-operator: serving metrics on http://%s/metrics", bound)
		if *pprofOn {
			log.Printf("spotdc-operator: profiling on http://%s/debug/pprof/", bound)
		}
	} else if *pprofOn {
		log.Printf("spotdc-operator: -pprof has no effect without -metrics-addr")
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}

	topo, err := power.NewTopology(1370,
		[]power.PDU{
			{ID: "PDU#1", Capacity: 715},
			{ID: "PDU#2", Capacity: 724},
		},
		[]power.Rack{
			{ID: "S-1", Tenant: "Search-1", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "S-2", Tenant: "Web", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "O-1", Tenant: "Count-1", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-2", Tenant: "Graph-1", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "S-3", Tenant: "Search-2", PDU: 1, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-3", Tenant: "Count-2", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-4", Tenant: "Sort", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-5", Tenant: "Graph-2", PDU: 1, Guaranteed: 115, SpotHeadroom: 50},
		})
	if err != nil {
		log.Fatal(err)
	}
	// Background (non-participating) power per PDU. With no rack telemetry
	// feed, the plant's reference reading stands in for the racks.
	others := make([]*trace.Power, len(topo.PDUs))
	for m := range others {
		tr, err := trace.GeneratePower(trace.PowerConfig{
			Name: fmt.Sprintf("other-%d", m), Seed: *seed + int64(m),
			Slots: 100000, SlotSeconds: *slotSeconds,
			MeanWatts: 180, MinWatts: 90, MaxWatts: 250, Volatility: 0.03,
		})
		if err != nil {
			log.Fatal(err)
		}
		others[m] = tr
	}

	cfg := plant.Config{
		Topology:               topo,
		MarketOptions:          core.Options{PriceStep: 0.001},
		OtherLoad:              others,
		SlotLen:                time.Duration(*slotSeconds) * time.Second,
		Registry:               reg,
		Tracer:                 tracer,
		Audit:                  *auditRun,
		Listen:                 *listen,
		SessionTTL:             *sessionTTL,
		BidWindow:              *bidWindow,
		Logf:                   logf,
		MaxConsecutiveFailures: *maxFailures,
		BreakerCooldownSlots:   *breakerCooldown,
		Emergency:              *emergency,
		BreakerTolerance:       *breakerTol,
		ResetDelay:             *resetDelay,
		SnapshotEvery:          *snapshotEvery,
		JournalPath:            *eventsFile,
		JournalSyncEvery:       *eventsSync,
		OnViolation: func(v error) {
			log.Printf("spotdc-operator: AUDIT VIOLATION: %v", v)
		},
	}
	// -emergency: each budget reset the responder sends a rack PDU is logged.
	cfg.EscalationSeverity = *escalation
	cfg.RecoverySlots = *recoverySlots
	cfg.SetBudget = func(rack int, watts float64) error {
		log.Printf("emergency: rack %s budget reset to %.1f W", topo.Racks[rack].ID, watts)
		return nil
	}
	// -state-dir: the books and the market resume after the last slot a
	// previous process committed.
	if *stateDir != "" {
		cfg.Dir = *stateDir
		if cfg.Policy, err = wal.ParseSyncPolicy(*fsync); err != nil {
			log.Fatal(err)
		}
		cfg.TimerInterval = *fsyncInterval
	}
	p, err := plant.Open(cfg)
	if err != nil {
		log.Fatalf("spotdc-operator: %v", err)
	}
	loop, op, srv := p.Loop, p.Loop.Operator, p.Loop.Server
	log.Printf("spotdc-operator: serving market on %s, slot length %ds", srv.Addr(), *slotSeconds)
	firstSlot := p.Recovered.NextSlot
	if *stateDir != "" {
		if rec := p.Recovered; firstSlot > 0 {
			log.Printf("spotdc-operator: recovered %s: resuming at slot %d (snapshot %v, %d slot records replayed, %d degraded, %d torn tail(s) repaired), spot revenue so far $%.6f",
				*stateDir, firstSlot, rec.HadSnapshot, rec.SlotsReplayed,
				rec.DegradedReplayed, rec.Truncations, op.SpotRevenue())
		} else {
			log.Printf("spotdc-operator: fresh state directory %s (fsync policy %s)", *stateDir, cfg.Policy)
		}
	}

	// slotTag prefixes a log line with the slot and its trace ID, so a
	// degraded slot in the log joins its span tree in -trace-spans with one
	// grep ("-" when tracing is off).
	slotTag := func(slot int) string {
		if sc := loop.SlotTrace(); sc.Valid() {
			return fmt.Sprintf("slot=%d trace=%s", slot, sc.Trace)
		}
		return fmt.Sprintf("slot=%d trace=-", slot)
	}
	// Per-slot narration is verbose-only; the journal and /metrics are
	// the always-available records. (Assigned outside the literal: the
	// closures read loop.SlotTrace.)
	loop.OnSlot = func(slot int, out operator.SlotOutcome, bids int) {
		logf("%s: %d bids from %v, price $%.3f/kWh, sold %.1f W, revenue $%.6f (total $%.6f)",
			slotTag(slot), bids, srv.Sessions(), out.Result.Price, out.Result.TotalWatts,
			out.RevenueThisSlot, op.SpotRevenue())
	}
	// Section III-C: a failed slot degrades to the no-spot default and
	// the market keeps running; it is logged, never fatal.
	loop.OnSlotError = func(slot int, err error) {
		log.Printf("%s: degraded to no-spot default: %v", slotTag(slot), err)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the loop at the
	// next slot boundary — after that slot's WAL commit, so nothing
	// acknowledged is lost; a second signal exits immediately.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("spotdc-operator: %v: stopping at next slot boundary (signal again to exit now)", s)
		close(stop)
		s = <-sigs
		log.Fatalf("spotdc-operator: %v: exiting immediately", s)
	}()
	loop.Stop = stop

	n := *slots
	if n == 0 {
		n = 1 << 30 // effectively forever
	}
	cleared, err := loop.RunSlots(firstSlot, n)

	// Ordered drain regardless of how the loop ended: make the log durable
	// first (a sticky WAL error never stopped the market — surface it now),
	// then flush the journal, then summarize; the audit verdict comes last.
	walErr, journalErr, auditErr := p.Close()
	if *stateDir != "" {
		if walErr != nil {
			log.Printf("spotdc-operator: WAL degraded: %v", walErr)
		} else {
			log.Printf("spotdc-operator: state committed through slot %d in %s", firstSlot+cleared+loop.SlotErrors()-1, *stateDir)
		}
	}
	if journalErr != nil {
		log.Printf("spotdc-operator: slot journal sync: %v", journalErr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if degraded := loop.SlotErrors(); degraded > 0 {
		log.Printf("spotdc-operator: %d/%d slots cleared, %d degraded (breaker open: %v)",
			cleared, n, degraded, loop.BreakerTripped())
	}
	if *emergency {
		failed, lastErr := op.HookFailures()
		log.Printf("spotdc-operator: emergency responder: %d emergencies acted on, %.1f W spot reclaimed, %.1f W guaranteed curtailed (%d involuntary cuts), %d budget resets failed",
			op.EmergenciesActed(), op.ReclaimedWatts(), op.GuaranteedCutWatts(), op.InvoluntaryCuts(), failed)
		if lastErr != nil {
			log.Printf("spotdc-operator: last budget-reset failure: %v", lastErr)
		}
	}
	if err := loop.Journal.Err(); err != nil {
		log.Printf("spotdc-operator: slot journal degraded: %v", err)
	}
	if *auditRun {
		if auditErr != nil {
			log.Fatalf("spotdc-operator: %v", auditErr)
		}
		log.Printf("spotdc-operator: audit clean — every slot conserved power and revenue")
	}
}
