// Networked scenario runner: drives a Scenario's tenants against the real
// internal/proto transport (Fig. 5) instead of in-process calls, with
// protocol-level fault injection. This is the harness behind the Section
// III-C robustness claim: under any injected fault schedule — lost bids,
// missed broadcasts, severed connections, operator slot failures — the
// market keeps clearing, allocations stay feasible, and affected tenants
// fall back to the no-spot default.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/plant"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/tenant"
)

// NetEmergencyOptions arms the emergency loop end to end over the wire:
// the operator's market loop checks every cleared reading for excursions,
// the responder plans reclamation and pushes budget resets into emulated
// rack PDUs (the authoritative physical cap on each rack's draw), budget
// resets are broadcast to the affected tenants, and spot sales at the
// element stay suspended until readings recover.
type NetEmergencyOptions struct {
	// BreakerTolerance is the excursion fraction breakers ride through
	// (default: the scenario's, or 0.05 — the testbed breakers').
	BreakerTolerance float64
	// EscalationSeverity and RecoverySlots configure the responder (see
	// operator.ResponderConfig; zeros take its defaults).
	EscalationSeverity float64
	RecoverySlots      int
	// OverloadSlots lists the slots during which every rack under
	// OverloadPDU draws OverloadRackWatts beyond its 75%-of-guarantee
	// reference — the injected excursion the responder must contain.
	OverloadSlots     []int
	OverloadRackWatts float64
	OverloadPDU       int
	// ResetDelay emulates the rack PDUs' budget-reset firmware latency
	// (see rackpdu.Config; the AP8632 sustains 20+ resets/s).
	ResetDelay time.Duration
}

// NetRunOptions configures a networked scenario run.
type NetRunOptions struct {
	// SlotLen is the wall-clock slot length (default 40ms; the scenario's
	// SlotSeconds still sets the *billed* slot duration so revenue matches
	// the in-process simulator's economics).
	SlotLen time.Duration
	// BidFaults injects faults into tenant→operator writes (hellos and
	// bids): the paper's "lost bid" exception.
	BidFaults proto.FaultPlan
	// BroadcastFaults injects faults into operator→tenant writes (price
	// broadcasts, acks): the paper's "missed broadcast" exception.
	BroadcastFaults proto.FaultPlan
	// ErrorSlots poisons the operator's power reading (NaN watts) for the
	// listed slots, forcing RunSlot to fail so the loop's degradation path
	// is exercised end to end.
	ErrorSlots []int
	// MaxConsecutiveFailures configures the market loop's circuit breaker
	// (see proto.MarketLoop).
	MaxConsecutiveFailures int
	// Reconnect enables tenant auto-reconnect with backoff (see
	// proto.ClientOptions).
	Reconnect bool
	// Wire selects every tenant client's wire encoding (default
	// proto.WireJSON). The server accepts both encodings regardless — it
	// answers each client in whichever encoding it opened with.
	Wire proto.Encoding
	// WireFor, if non-nil, selects the wire encoding per agent index,
	// overriding Wire — the mixed-fleet interop hook (some tenants on
	// legacy JSON, some on binary, one market).
	WireFor func(agentIdx int) proto.Encoding
	// SessionTTL is the server-side half-open session expiry (default
	// 10×SlotLen).
	SessionTTL time.Duration
	// Registry, if non-nil, instruments the whole networked plane on one
	// registry: the market core and operator families (as in Run), plus one
	// shared proto.Metrics wired into the server, every tenant client, and
	// both fault injectors — so /metrics shows sessions, bid rejections,
	// broadcast outcomes, and injected faults live.
	Registry *metrics.Registry
	// Journal, if non-nil, receives one structured SlotEvent line per
	// market slot (cleared or degraded), stamped with the cumulative
	// injected-fault counts of both directions. The journal opens with a
	// schema header, making the run deterministically replayable by
	// internal/audit and cmd/spotdc-audit.
	Journal *metrics.Journal
	// Audit attaches a conservation auditor to the market core and, after
	// the run, reconciles the operator's books; any violation fails the run
	// with a descriptive error (see RunOptions.Audit).
	Audit bool
	// Emergency, if non-nil, arms the emergency loop (see
	// NetEmergencyOptions). Nil keeps the networked run bit-identical to a
	// harness without the emergency subsystem.
	Emergency *NetEmergencyOptions
	// Tracer, if non-nil, traces the operator plane: the market loop opens
	// one root span per slot with children for bid drain, predict, clear,
	// audit, emergencies, WAL commit, and broadcast (including per-session
	// send spans). The same tracer is wired into the server and operator.
	Tracer *otrace.Tracer
	// TenantTracer, if non-nil, traces every tenant client (bid decision,
	// submit, await-price) and upgrades their binary sessions to the
	// trace-carrying v2 framing. Use a separate tracer (and journal) from
	// the operator's so the two planes' rings don't contend.
	TenantTracer *otrace.Tracer
}

func (o *NetRunOptions) setDefaults() {
	if o.SlotLen <= 0 {
		o.SlotLen = 40 * time.Millisecond
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 10 * o.SlotLen
	}
}

// NetTenantStats reports one tenant's view of a networked run.
type NetTenantStats struct {
	// Name is the tenant name.
	Name string
	// BidSlots counts slots the agent submitted (or tried to submit) bids
	// for.
	BidSlots int
	// SubmitFailures counts bid submissions that failed even after
	// reconnect: the tenant ran those slots without spot capacity.
	SubmitFailures int
	// GrantSlots counts slots with a positive spot grant received.
	GrantSlots int
	// NoSpotSlots counts awaited slots that ended in the no-spot default
	// (missed broadcast, rejected bid, or degraded zero-price slot).
	NoSpotSlots int
	// Reconnects counts restored connections.
	Reconnects int
	// BudgetResets counts emergency budget-reset broadcasts this tenant
	// received and applied (Emergency runs only).
	BudgetResets int
	// DialFailed marks a tenant that never established its session.
	DialFailed bool
}

// NetResult is the outcome of a networked scenario run.
type NetResult struct {
	// Slots echoes the horizon; Cleared counts slots that cleared and
	// SlotErrors slots that degraded to the no-spot default.
	Slots      int
	Cleared    int
	SlotErrors int
	// BreakerTripped reports whether the loop ended with the circuit
	// breaker open.
	BreakerTripped bool
	// InfeasibleSlots counts broadcast allocations that failed an
	// independent VerifyFeasible re-check — any value but zero is a
	// reliability violation.
	InfeasibleSlots int
	// BidFaults / BroadcastFaults are the injected-fault counts for each
	// direction.
	BidFaults       proto.FaultStats
	BroadcastFaults proto.FaultStats
	// ReapedSessions counts server-side session expirations/evictions.
	ReapedSessions int
	// SpotRevenue is the operator's cumulative spot revenue in $.
	SpotRevenue float64
	// EmergencySlots counts cleared slots whose reading exceeded breaker
	// tolerance somewhere in the hierarchy (Emergency runs only); the
	// responder totals below mirror the operator's accessors.
	EmergencySlots     int
	EmergenciesActed   int
	ReclaimedWatts     float64
	GuaranteedCutWatts float64
	InvoluntaryCuts    int
	// BudgetResets totals the budget resets applied across all emulated
	// rack PDUs (reclaims and restores alike).
	BudgetResets int
	// Tenants maps tenant name to its networked stats.
	Tenants map[string]*NetTenantStats
}

// netBids converts an agent's market bids to wire form. Only piece-wise
// linear bids have a four-parameter wire encoding (Eqn. 5); others are
// dropped (the wire protocol is exactly the paper's).
func netBids(topo *power.Topology, bids []core.Bid) []proto.RackBid {
	out := make([]proto.RackBid, 0, len(bids))
	for _, b := range bids {
		lb, ok := b.Fn.(core.LinearBid)
		if !ok {
			continue
		}
		out = append(out, proto.RackBid{
			Rack: topo.Racks[b.Rack].ID,
			DMax: lb.DMax, DMin: lb.DMin, QMin: lb.QMin, QMax: lb.QMax,
		})
	}
	return out
}

// netConfig validates a networked run, fills in the options' defaults, and
// returns the plant every operator lifetime of the run builds: the
// scenario's market on a loopback listener, with the run's instrumentation
// and, when armed, its emergency responder.
func netConfig(sc Scenario, opts *NetRunOptions) (plant.Config, error) {
	if err := sc.validate(); err != nil {
		return plant.Config{}, err
	}
	opts.setDefaults()
	cfg := plant.Config{
		Topology:               sc.Topo,
		MarketOptions:          sc.MarketOptions,
		Pricing:                sc.Pricing,
		Predict:                sc.Predict,
		OtherLoad:              sc.OtherLoad,
		SlotLen:                opts.SlotLen,
		Registry:               opts.Registry,
		Tracer:                 opts.Tracer,
		Audit:                  opts.Audit,
		Listen:                 "127.0.0.1:0",
		SessionTTL:             opts.SessionTTL,
		MaxConsecutiveFailures: opts.MaxConsecutiveFailures,
		// Logf stays nil: faults are expected here, the server is quiet by
		// default, and the metrics carry the signal.
	}
	if em := opts.Emergency; em != nil {
		if em.OverloadPDU < 0 || em.OverloadPDU >= len(sc.Topo.PDUs) {
			return cfg, fmt.Errorf("sim: emergency OverloadPDU %d of %d", em.OverloadPDU, len(sc.Topo.PDUs))
		}
		cfg.Emergency = true
		cfg.EscalationSeverity = em.EscalationSeverity
		cfg.RecoverySlots = em.RecoverySlots
		cfg.ResetDelay = em.ResetDelay
		// The run's tolerance, else the scenario's, else the testbed
		// breakers' 5%.
		for _, tol := range []float64{em.BreakerTolerance, sc.BreakerTolerance, 0.05} {
			if cfg.BreakerTolerance == 0 {
				cfg.BreakerTolerance = tol
			}
		}
	}
	return cfg, nil
}

// lifetime is one operator lifetime of a networked run, slots [from, to):
// NetRun is one, CrashNetRun one per kill plus the last. expect, if
// non-nil, arms the bid barrier; budgets, if non-nil, are the rack PDU
// budgets the previous lifetime left; kill ends the lifetime with
// Plant.Kill instead of Plant.Close.
type lifetime struct {
	from, to int
	expect   []int
	budgets  []float64
	kill     bool
}

// runLifetime builds one operator lifetime through plant.Open, adds what
// only the harness has — the fault injectors, the poisoned and surge slots
// on top of the reference reading, the feasibility re-check, the bid
// barrier — and runs the scenario's tenants against it. It returns the
// lifetime's counters and its plant, already closed or killed.
func runLifetime(sc Scenario, opts NetRunOptions, cfg plant.Config, lt lifetime) (*NetResult, *plant.Plant, error) {
	// bidInj wraps tenant→operator writes (tenants dial through it),
	// bcastInj operator→tenant writes; inactive plans pass through.
	bidInj, err := proto.NewFaultInjector(opts.BidFaults)
	if err != nil {
		return nil, nil, err
	}
	bcastInj, err := proto.NewFaultInjector(opts.BroadcastFaults)
	if err != nil {
		return nil, nil, err
	}
	cfg.WrapConn = bcastInj.Wrap
	p, err := plant.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	bidInj.SetMetrics(p.Metrics)
	bcastInj.SetMetrics(p.Metrics)
	if err := handBudgets(p, lt); err != nil {
		p.Kill()
		return nil, nil, err
	}
	loop := p.Loop
	if opts.Journal != nil {
		loop.Journal = opts.Journal
	}
	loop.Reading = faultyReading(sc, opts, p)
	loop.FaultCounts = func() (drops, delays, severs int64) {
		b, c := bidInj.Stats(), bcastInj.Stats()
		return b.Drops + c.Drops, b.Delays + c.Delays, b.Severs + c.Severs
	}
	res := &NetResult{Slots: lt.to - lt.from, Tenants: make(map[string]*NetTenantStats, len(sc.Agents))}
	loop.OnSlot = func(slot int, out operator.SlotOutcome, bids int) {
		if err := loop.Operator.VerifyFeasible(out.Result.Allocations); err != nil {
			res.InfeasibleSlots++
		}
	}
	if lt.expect != nil {
		loop.BeforeBids = bidBarrier(loop, lt.expect)
	}

	// One bidding goroutine per agent, seeded by its index.
	var wg sync.WaitGroup
	stats := make([]*NetTenantStats, len(sc.Agents))
	for idx, a := range sc.Agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[idx] = runNetTenant(a, sc.Topo, loop.Server.Addr(), loop.Clock, lt.from, lt.to, bidInj, p.Metrics, opts, int64(idx))
		}()
	}
	cleared, runErr := loop.RunSlots(lt.from, lt.to-lt.from)
	wg.Wait()
	if runErr != nil {
		p.Close() // the run already failed; the drain's own errors add nothing
		return nil, nil, runErr
	}
	for _, st := range stats {
		res.Tenants[st.Name] = st
	}
	op := loop.Operator
	res.Cleared = cleared
	res.SlotErrors = loop.SlotErrors()
	res.BreakerTripped = loop.BreakerTripped()
	res.BidFaults = bidInj.Stats()
	res.BroadcastFaults = bcastInj.Stats()
	res.ReapedSessions = loop.Server.ReapedSessions()
	res.SpotRevenue = op.SpotRevenue()
	if cfg.Emergency {
		res.EmergencySlots = op.EmergencySlots()
		res.EmergenciesActed = op.EmergenciesActed()
		res.ReclaimedWatts = op.ReclaimedWatts()
		res.GuaranteedCutWatts = op.GuaranteedCutWatts()
		res.InvoluntaryCuts = op.InvoluntaryCuts()
		for _, u := range p.Units {
			res.BudgetResets += u.Resets()
		}
	}
	if lt.kill {
		p.Kill()
		return res, p, nil
	}
	if err := errors.Join(p.Close()); err != nil {
		return nil, nil, err
	}
	return res, p, nil
}

// handBudgets checks that the plant resumed where the harness expects and
// sets its rack PDUs to the budgets the previous lifetime left them at.
func handBudgets(p *plant.Plant, lt lifetime) error {
	if next := p.Recovered.NextSlot; next != lt.from {
		return fmt.Errorf("recovered to slot %d, harness expected %d", next, lt.from)
	}
	if lt.budgets != nil && len(lt.budgets) != len(p.Units) {
		return fmt.Errorf("handed %d rack budgets for %d racks", len(lt.budgets), len(p.Units))
	}
	for i, b := range lt.budgets {
		if err := p.Units[i].SetBudget(b); err != nil {
			return err
		}
	}
	return nil
}

// faultyReading wraps the plant's reference reading with the run's
// injected slots: ErrorSlots poison the snapshot with NaN so RunSlot fails
// and the loop must degrade, and the emergency OverloadSlots add
// OverloadRackWatts to every rack under OverloadPDU, still capped at the
// rack PDU's budget.
func faultyReading(sc Scenario, opts NetRunOptions, p *plant.Plant) func(slot int) power.Reading {
	reference := p.Loop.Reading
	errorSlot := make(map[int]bool, len(opts.ErrorSlots))
	for _, s := range opts.ErrorSlots {
		errorSlot[s] = true
	}
	surgeSlot := make(map[int]bool)
	em := opts.Emergency
	if em != nil {
		for _, s := range em.OverloadSlots {
			surgeSlot[s] = true
		}
	}
	return func(slot int) power.Reading {
		rd := reference(slot)
		if errorSlot[slot] {
			return power.Reading{RackWatts: []float64{math.NaN()}, OtherPDUWatts: rd.OtherPDUWatts}
		}
		if surgeSlot[slot] {
			for i, r := range sc.Topo.Racks {
				if r.PDU == em.OverloadPDU {
					rd.RackWatts[i] = math.Min(rd.RackWatts[i]+em.OverloadRackWatts, p.Units[i].Budget())
				}
			}
		}
		return rd
	}
}

// NetRun executes the scenario's market over real TCP connections with the
// given fault schedule. The operator side runs proto.MarketLoop (with its
// degradation semantics); each agent runs a tenant goroutine that bids per
// slot and awaits the price broadcast, pacing itself by the shared slot
// clock so a missed broadcast costs exactly one slot. Agents' Execute
// feedback is not replayed into the readings — racks are referenced at 75%
// of their guarantee, as in spotdc-operator — because the harness exists
// to stress the transport, not the workload models.
//
// testhook: the networked smokes, the audit replay and the root smoke tests drive it
func NetRun(sc Scenario, opts NetRunOptions) (*NetResult, error) {
	cfg, err := netConfig(sc, &opts)
	if err != nil {
		return nil, err
	}
	res, _, err := runLifetime(sc, opts, cfg, lifetime{to: sc.Slots})
	return res, err
}

// runNetTenant is one tenant's bidding loop over the wire for slots
// [from, to): submit during the preceding slot, await the price just after
// the boundary, and treat every failure as "no spot capacity this slot".
// A non-zero from is the restart path — a tenant reconnecting to an
// operator that recovered mid-horizon picks up bidding at the recovered
// market position (the server rejects anything earlier as stale).
func runNetTenant(a tenant.Agent, topo *power.Topology, addr string, clock *proto.SlotClock,
	from, to int, inj *proto.FaultInjector, pm *proto.Metrics, opts NetRunOptions, seed int64) *NetTenantStats {
	st := &NetTenantStats{Name: a.Name()}
	rackIDs := make([]string, 0, len(a.Racks()))
	for _, r := range a.Racks() {
		rackIDs = append(rackIDs, topo.Racks[r].ID)
	}
	wire := opts.Wire
	if opts.WireFor != nil {
		// seed is the agent index (see runLifetime), so WireFor can
		// mix encodings per tenant within one market.
		wire = opts.WireFor(int(seed))
	}
	copts := proto.ClientOptions{
		Reconnect:        opts.Reconnect,
		BackoffBase:      opts.SlotLen / 8,
		BackoffMax:       opts.SlotLen,
		MaxAttempts:      12,
		Seed:             seed,
		HandshakeTimeout: 2 * opts.SlotLen,
		Dialer:           inj.Dial,
		Wire:             wire,
		Metrics:          pm,
		Tracer:           opts.TenantTracer,
	}
	if opts.Emergency != nil {
		// Count delivered emergency budget resets; the callback runs on this
		// goroutine (inside AwaitPrice), so no locking is needed.
		copts.OnBudgetReset = func(slot int, budgets []proto.Grant) {
			st.BudgetResets++
		}
	}
	// The initial dial itself may be hit by injected faults; retry a few
	// times before conceding the tenant never joins the market.
	var client *proto.Client
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		client, err = proto.DialOpts(addr, a.Name(), rackIDs, copts)
		if err == nil {
			break
		}
		time.Sleep(opts.SlotLen / 4)
	}
	if err != nil {
		st.DialFailed = true
		return st
	}
	defer client.Close()

	slotLen := clock.SlotLen()
	for slot := from; slot < to; slot++ {
		// Bid midway through the preceding slot (Fig. 6 discipline).
		if wait := time.Until(clock.StartOf(slot).Add(-slotLen / 2)); wait > 0 {
			time.Sleep(wait)
		}
		bd := opts.TenantTracer.StartChild("bid_decision", client.SlotSpan(slot))
		bids := netBids(topo, a.PlanBids(slot, tenant.MarketHint{}))
		if bd != nil {
			bd.SetInt("bids", int64(len(bids)))
			bd.End()
		}
		if len(bids) > 0 {
			st.BidSlots++
			if err := client.SubmitBids(slot, bids); err != nil {
				// Lost bid: the Section III-C default applies — the
				// tenant simply has no spot capacity this slot.
				st.SubmitFailures++
			}
		} else {
			// Idle slots still heartbeat (Fig. 5) so the server's
			// half-open reaper doesn't expire a quiet-but-live tenant.
			_ = client.HeartBeat(slot)
		}
		// Await the broadcast fired at the slot boundary, but never past
		// 3/4 of the slot: the tenant paces itself by the clock, so one
		// missed broadcast costs one slot, not the rest of the run.
		timeout := time.Until(clock.StartOf(slot).Add(3 * slotLen / 4))
		if timeout <= 0 {
			st.NoSpotSlots++
			continue
		}
		_, grants, err := client.AwaitPrice(slot, timeout)
		total := 0.0
		for _, g := range grants {
			total += g.Watts
		}
		switch {
		case err != nil, total <= 0:
			st.NoSpotSlots++
		default:
			st.GrantSlots++
		}
	}
	st.Reconnects = client.Reconnects()
	return st
}

// String summarizes a networked run.
func (r *NetResult) String() string {
	return fmt.Sprintf("net: %d/%d slots cleared (%d degraded, breaker=%v), %d infeasible, revenue $%.6f, faults bid=%+v bcast=%+v",
		r.Cleared, r.Slots, r.SlotErrors, r.BreakerTripped, r.InfeasibleSlots, r.SpotRevenue, r.BidFaults, r.BroadcastFaults)
}
