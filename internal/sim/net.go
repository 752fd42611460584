// Networked scenario runner: drives a Scenario's tenants against the real
// internal/proto transport (Fig. 5) instead of in-process calls, with
// protocol-level fault injection. This is the harness behind the Section
// III-C robustness claim: under any injected fault schedule — lost bids,
// missed broadcasts, severed connections, operator slot failures — the
// market keeps clearing, allocations stay feasible, and affected tenants
// fall back to the no-spot default.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/rackpdu"
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
	// MaxConsecutiveFailures / BreakerCooldownSlots configure the market
	// loop's circuit breaker (see proto.MarketLoop).
	MaxConsecutiveFailures int
	BreakerCooldownSlots   int
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
	// BidWindow is the server's bid acceptance window in slots (default
	// proto's 16).
	BidWindow int
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
	// Durable, if non-nil, is threaded into the market loop so every
	// cleared slot commits to the write-ahead log before its broadcast
	// (see proto.Durable); with Tracer set, the commit is visible as a
	// wal_commit child span.
	Durable *proto.Durable
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

// netPlant is the operator side of a networked run — what NetRun builds
// once and CrashNetRun rebuilds for every operator lifetime: the operator
// (plus, with the emergency loop armed, one emulated intelligent PDU per
// rack and the responder that resets their budgets), both fault injectors,
// the protocol server, and the seeded reference reading the market loop
// polls.
type netPlant struct {
	sc    Scenario
	opts  NetRunOptions
	aud   *core.Auditor
	op    *operator.Operator
	units []*rackpdu.PDU
	srv   *proto.Server
	// bidInj wraps tenant→operator writes (tenants dial through it),
	// bcastInj operator→tenant writes; inactive plans pass through.
	bidInj, bcastInj *proto.FaultInjector
	protoMetrics     *proto.Metrics
	// infeasible counts broadcast allocations failing the independent
	// VerifyFeasible re-check.
	infeasible int
}

// newNetPlant builds the operator side up to a listening server; the caller
// owns closing p.srv.
func newNetPlant(sc Scenario, opts NetRunOptions) (*netPlant, error) {
	p := &netPlant{opts: opts}
	var opMetrics *operator.Metrics
	var rpm *rackpdu.Metrics
	if opts.Registry != nil {
		sc.MarketOptions.Metrics = core.NewMarketMetrics(opts.Registry)
		opMetrics = operator.NewMetrics(opts.Registry)
		p.protoMetrics = proto.NewMetrics(opts.Registry)
	}
	if opts.Audit {
		p.aud = &core.Auditor{}
		sc.MarketOptions.Audit = p.aud
	}
	p.sc = sc
	topo := sc.Topo
	opCfg := operator.Config{
		Topology:      topo,
		MarketOptions: sc.MarketOptions,
		Pricing:       sc.Pricing,
		Predict:       sc.Predict,
		Metrics:       opMetrics,
		Tracer:        opts.Tracer,
	}
	// With the emergency loop armed, every rack gets an emulated intelligent
	// PDU: the responder's budget resets land there, and the unit's budget is
	// the authoritative physical cap on what the rack can draw.
	if em := opts.Emergency; em != nil {
		if em.OverloadPDU < 0 || em.OverloadPDU >= len(topo.PDUs) {
			return nil, fmt.Errorf("sim: emergency OverloadPDU %d of %d", em.OverloadPDU, len(topo.PDUs))
		}
		if opts.Registry != nil {
			rpm = rackpdu.NewMetrics(opts.Registry)
		}
		p.units = make([]*rackpdu.PDU, len(topo.Racks))
		for i, r := range topo.Racks {
			unit, err := rackpdu.New(rackpdu.Config{
				ID:          r.ID,
				BudgetWatts: r.Guaranteed + r.SpotHeadroom,
				ResetDelay:  em.ResetDelay,
				Metrics:     rpm,
			})
			if err != nil {
				return nil, err
			}
			p.units[i] = unit
		}
		opCfg.Emergency = &operator.ResponderConfig{
			EscalationSeverity: em.EscalationSeverity,
			RecoverySlots:      em.RecoverySlots,
			SetBudget: func(rack int, budgetWatts float64) error {
				return p.units[rack].SetBudget(budgetWatts)
			},
		}
	}
	var err error
	if p.op, err = operator.New(opCfg); err != nil {
		return nil, err
	}
	if p.bidInj, err = proto.NewFaultInjector(opts.BidFaults); err != nil {
		return nil, err
	}
	if p.bcastInj, err = proto.NewFaultInjector(opts.BroadcastFaults); err != nil {
		return nil, err
	}
	p.bidInj.SetMetrics(p.protoMetrics)
	p.bcastInj.SetMetrics(p.protoMetrics)
	p.srv, err = proto.NewServerOpts("127.0.0.1:0", func(id string) (int, bool) {
		return topo.RackByID(id)
	}, proto.ServerOptions{
		SessionTTL: opts.SessionTTL,
		BidWindow:  opts.BidWindow,
		// Rack ownership: a tenant may only register (and bid for) its own
		// racks — without this, any connected tenant could claim another's
		// headroom.
		OwnerOf:  func(i int) string { return topo.Racks[i].Tenant },
		WrapConn: p.bcastInj.Wrap,
		Metrics:  p.protoMetrics,
		Tracer:   opts.Tracer,
		// Logf stays nil: faults are expected here, the server is quiet by
		// default, and the metrics above carry the signal.
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// marketLoop wires the plant into a market loop on the given clock; callers
// add what differs between harnesses (journal, WAL, bid barrier).
func (p *netPlant) marketLoop(clock *proto.SlotClock) *proto.MarketLoop {
	sc, opts, topo := p.sc, p.opts, p.sc.Topo
	// Reference reading: racks at 75% of their guarantee, non-participants
	// from their traces; ErrorSlots poison the snapshot with NaN so
	// RunSlot fails and the loop must degrade.
	errorSlot := make(map[int]bool, len(opts.ErrorSlots))
	for _, s := range opts.ErrorSlots {
		errorSlot[s] = true
	}
	surgeSlot := make(map[int]bool)
	if opts.Emergency != nil {
		for _, s := range opts.Emergency.OverloadSlots {
			surgeSlot[s] = true
		}
	}
	rackWatts := make([]float64, len(topo.Racks))
	for i, r := range topo.Racks {
		rackWatts[i] = 0.75 * r.Guaranteed
	}
	otherWatts := make([]float64, len(topo.PDUs))
	reading := func(slot int) power.Reading {
		if errorSlot[slot] {
			return power.Reading{
				RackWatts:     []float64{math.NaN()},
				OtherPDUWatts: otherWatts,
			}
		}
		for m := range otherWatts {
			otherWatts[m] = sc.OtherLoad[m].At(slot)
		}
		if em := opts.Emergency; em != nil {
			// Offered load (reference + surge), capped at the rack PDU's
			// current budget — the physical enforcement of a reclaim plan.
			for i, r := range topo.Racks {
				w := 0.75 * r.Guaranteed
				if surgeSlot[slot] && r.PDU == em.OverloadPDU {
					w += em.OverloadRackWatts
				}
				if b := p.units[i].Budget(); w > b {
					w = b
				}
				rackWatts[i] = w
			}
		}
		return power.Reading{RackWatts: rackWatts, OtherPDUWatts: otherWatts}
	}
	loop := &proto.MarketLoop{
		Server:                 p.srv,
		Operator:               p.op,
		Clock:                  clock,
		Reading:                reading,
		RackID:                 func(i int) string { return topo.Racks[i].ID },
		MaxConsecutiveFailures: opts.MaxConsecutiveFailures,
		BreakerCooldownSlots:   opts.BreakerCooldownSlots,
		Tracer:                 opts.Tracer,
		FaultCounts: func() (drops, delays, severs int64) {
			b, c := p.bidInj.Stats(), p.bcastInj.Stats()
			return b.Drops + c.Drops, b.Delays + c.Delays, b.Severs + c.Severs
		},
		OnSlot: func(slot int, out operator.SlotOutcome, bids int) {
			if err := p.op.VerifyFeasible(out.Result.Allocations); err != nil {
				p.infeasible++
			}
		},
	}
	if em := opts.Emergency; em != nil {
		tol := em.BreakerTolerance
		if tol == 0 {
			tol = sc.BreakerTolerance
		}
		if tol == 0 {
			tol = 0.05
		}
		loop.CheckEmergencies = true
		loop.BreakerTolerance = tol
	}
	return loop
}

// runTenants starts one bidding goroutine per agent for slots [from, to);
// the returned wait blocks until all have finished and yields their stats
// in agent order.
func (p *netPlant) runTenants(clock *proto.SlotClock, from, to int) (wait func() []*NetTenantStats) {
	var wg sync.WaitGroup
	stats := make([]*NetTenantStats, len(p.sc.Agents))
	for idx, a := range p.sc.Agents {
		wg.Add(1)
		go func(idx int, a tenant.Agent) {
			defer wg.Done()
			stats[idx] = runNetTenant(a, p.sc.Topo, p.srv.Addr(), clock, from, to, p.bidInj, p.protoMetrics, p.opts, int64(idx))
		}(idx, a)
	}
	return func() []*NetTenantStats {
		wg.Wait()
		return stats
	}
}

// audit is the post-run half of NetRunOptions.Audit: no inline clearing
// violation and books that reconcile.
func (p *netPlant) audit() error {
	if !p.opts.Audit {
		return nil
	}
	if n := p.aud.Violations(); n > 0 {
		return fmt.Errorf("audit found %d clearing violation(s): %w", n, p.aud.Err())
	}
	if err := p.op.ReconcileAccounts(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

// NetRun executes the scenario's market over real TCP connections with the
// given fault schedule. The operator side runs proto.MarketLoop (with its
// degradation semantics); each agent runs a tenant goroutine that bids per
// slot and awaits the price broadcast, pacing itself by the shared slot
// clock so a missed broadcast costs exactly one slot. Agents' Execute
// feedback is not replayed into the readings — racks are referenced at 75%
// of their guarantee, as in the spotdc-operator demo — because the harness
// exists to stress the transport, not the workload models.
//
// testhook: the networked smokes, the audit replay and the root smoke tests drive it
func NetRun(sc Scenario, opts NetRunOptions) (*NetResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	p, err := newNetPlant(sc, opts)
	if err != nil {
		return nil, err
	}
	defer p.srv.Close()

	clock, err := proto.NewSlotClock(time.Now().Add(2*opts.SlotLen), opts.SlotLen)
	if err != nil {
		return nil, err
	}
	loop := p.marketLoop(clock)
	loop.Journal = opts.Journal
	loop.Durable = opts.Durable

	res := &NetResult{
		Slots:   sc.Slots,
		Tenants: make(map[string]*NetTenantStats, len(sc.Agents)),
	}
	wait := p.runTenants(clock, 0, sc.Slots)
	cleared, runErr := loop.RunSlots(0, sc.Slots)
	for _, st := range wait() {
		res.Tenants[st.Name] = st
	}
	if runErr != nil {
		return nil, runErr
	}
	op := p.op
	res.Cleared = cleared
	res.SlotErrors = loop.SlotErrors()
	res.BreakerTripped = loop.BreakerTripped()
	res.InfeasibleSlots = p.infeasible
	res.BidFaults = p.bidInj.Stats()
	res.BroadcastFaults = p.bcastInj.Stats()
	res.ReapedSessions = p.srv.ReapedSessions()
	res.SpotRevenue = op.SpotRevenue()
	if opts.Emergency != nil {
		res.EmergencySlots = op.EmergencySlots()
		res.EmergenciesActed = op.EmergenciesActed()
		res.ReclaimedWatts = op.ReclaimedWatts()
		res.GuaranteedCutWatts = op.GuaranteedCutWatts()
		res.InvoluntaryCuts = op.InvoluntaryCuts()
		for _, u := range p.units {
			res.BudgetResets += u.Resets()
		}
	}
	if err := p.audit(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return res, nil
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
		// seed is the agent index (see the NetRun fan-out), so WireFor can
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
