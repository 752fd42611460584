package proto

import (
	"errors"
	"fmt"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
)

// ErrBreakerOpen reports that the market loop's circuit breaker is open:
// after too many consecutive slot failures the loop degrades to
// PowerCapped-equivalent behavior (no spot capacity sold) instead of
// hammering a failing operator.
var ErrBreakerOpen = errors.New("proto: market circuit breaker open")

// SlotClock implements the Fig. 6 timing discipline: wall-clock time is
// divided into fixed slots; bids for slot t are due before the slot
// starts, the market clears at the boundary, and the allocation is valid
// for the whole slot.
type SlotClock struct {
	epoch time.Time
	slot  time.Duration
}

// NewSlotClock builds a clock with the given slot length, anchored at
// epoch.
func NewSlotClock(epoch time.Time, slotLen time.Duration) (*SlotClock, error) {
	if slotLen <= 0 {
		return nil, fmt.Errorf("%w: slot length %v", ErrProtocol, slotLen)
	}
	return &SlotClock{epoch: epoch, slot: slotLen}, nil
}

// SlotLen returns the slot duration.
func (c *SlotClock) SlotLen() time.Duration { return c.slot }

// StartOf returns the wall-clock start of a slot.
func (c *SlotClock) StartOf(slot int) time.Time {
	return c.epoch.Add(time.Duration(slot) * c.slot)
}

// MarketLoop drives the operator's Algorithm 1 over the network: each
// slot boundary it collects the slot's bids from the server, predicts spot
// capacity from the supplied reading, clears, and broadcasts price and
// grants. It is the tested core of cmd/spotdc-operator.
//
// Failure semantics follow Section III-C: a slot whose clearing fails
// degrades to the safe default — a zero-price, no-grant broadcast, so every
// connected tenant runs without spot capacity for that slot — and the loop
// continues. A market must never stop because one slot went bad. A
// configurable circuit breaker additionally trips the loop into sustained
// PowerCapped-equivalent behavior after too many consecutive failures.
type MarketLoop struct {
	// Server is the protocol endpoint tenants connect to.
	Server *Server
	// Operator clears the market and bills.
	Operator *operator.Operator
	// Clock provides slot timing.
	Clock *SlotClock
	// Reading supplies the rack-level power snapshot for a slot (the
	// operator's routine monitoring).
	Reading func(slot int) power.Reading
	// RackID maps market rack indices to wire IDs.
	RackID func(rack int) string
	// OnSlot, if non-nil, observes every successfully cleared slot.
	OnSlot func(slot int, out operator.SlotOutcome, bids int)
	// OnSlotError, if non-nil, observes every degraded slot: err is the
	// clearing failure, or ErrBreakerOpen for slots skipped while the
	// breaker is open.
	OnSlotError func(slot int, err error)
	// MaxConsecutiveFailures trips the circuit breaker after this many
	// consecutive slot failures (0 disables the breaker: every slot
	// retries clearing). While open, slots degrade without touching the
	// operator — PowerCapped-equivalent behavior.
	MaxConsecutiveFailures int
	// BreakerCooldownSlots, when the breaker is open, lets one probe slot
	// attempt clearing after this many degraded slots (half-open retry);
	// success closes the breaker. 0 keeps the breaker open for the rest of
	// the run once tripped.
	BreakerCooldownSlots int
	// Journal, if non-nil, receives one structured SlotEvent per slot —
	// cleared or degraded — as one journal line (the operator's after-the-
	// fact record; /metrics is the live aggregate view). A nil Journal is
	// free.
	Journal *metrics.Journal
	// FaultCounts, if non-nil, supplies the cumulative injected-fault
	// counts stamped onto each journal event (harnesses wire it to their
	// FaultInjector.Stats; the hook indirection keeps the metrics package
	// free of protocol types).
	FaultCounts func() (drops, delays, severs int64)
	// CheckEmergencies runs the operator's emergency observation on every
	// cleared slot's reading (Section III-C): excursions are counted, and —
	// when the operator has a responder configured — reclamation plans are
	// issued and their budget resets pushed to the owning tenants *before*
	// the price broadcast, so a tenant caps within the same slot it is
	// granted in. Degraded slots are skipped (their readings may be
	// corrupt). Off by default: the historical loop never observed
	// emergencies over the network.
	CheckEmergencies bool
	// BreakerTolerance is the excursion fraction breakers ride through
	// (e.g. 0.05); only used when CheckEmergencies is set.
	BreakerTolerance float64
	// Durable, if non-nil, write-ahead-logs every slot before its broadcast
	// and snapshots periodically, making the operator's books and market
	// position crash-recoverable (durable.go). A nil Durable keeps the
	// historical in-memory-only behavior.
	Durable *Durable
	// Stop, if non-nil, ends RunSlots early at the next slot boundary when
	// closed — the graceful-shutdown hook: in-flight slots finish, commit,
	// and broadcast before the loop returns. A nil channel never fires.
	Stop <-chan struct{}
	// BeforeBids, if non-nil, runs after each slot boundary and before the
	// slot's bids are drained. Deterministic harnesses use it to quiesce
	// bid arrival (wait for in-flight submissions to land) so that two runs
	// of the same seed drain identical bid sets. A non-nil error ends
	// RunSlots with that error before the slot is drained, cleared,
	// committed or journaled: the slot is left to the next lifetime.
	BeforeBids func(slot int) error
	// Tracer, if non-nil, opens one root span per slot with children for
	// the bid-window drain, the operator's predict/clear/audit stages,
	// emergency observation, the WAL commit, and the broadcast fan-out
	// (DESIGN §4i). Degraded, breaker-open, and emergency slots are
	// force-sampled. Wire the same tracer into ServerOptions.Tracer (send
	// spans) and operator Config.Tracer (stage spans). Nil is free.
	Tracer *otrace.Tracer

	// Internal degradation state; read them only after RunSlots returns
	// (or from OnSlot/OnSlotError callbacks, which run on the loop
	// goroutine).
	slotErrors  int
	consecFails int
	tripped     bool
	cooldown    int
	curTrace    otrace.SpanContext
	// Journal capture scratch, lent to each slot's SlotEvent.
	bidSet   []metrics.BidRecord
	grantSet []metrics.GrantRecord
}

// SlotErrors returns how many slots degraded to the no-spot default
// (including slots skipped while the breaker was open).
func (l *MarketLoop) SlotErrors() int { return l.slotErrors }

// BreakerTripped reports whether the circuit breaker is currently open.
func (l *MarketLoop) BreakerTripped() bool { return l.tripped }

// SlotTrace returns the current slot's trace context (zero when no
// tracer is wired). Valid on the loop goroutine — i.e. from OnSlot and
// OnSlotError callbacks — which is where slot-scoped log lines join
// their `trace=` field from.
func (l *MarketLoop) SlotTrace() otrace.SpanContext { return l.curTrace }

// validate checks the loop wiring.
func (l *MarketLoop) validate() error {
	switch {
	case l.Server == nil:
		return errors.New("proto: market loop needs a server")
	case l.Operator == nil:
		return errors.New("proto: market loop needs an operator")
	case l.Clock == nil:
		return errors.New("proto: market loop needs a clock")
	case l.Reading == nil:
		return errors.New("proto: market loop needs a reading source")
	case l.RackID == nil:
		return errors.New("proto: market loop needs a rack-ID mapper")
	case l.MaxConsecutiveFailures < 0:
		return fmt.Errorf("proto: MaxConsecutiveFailures %d negative", l.MaxConsecutiveFailures)
	case l.BreakerCooldownSlots < 0:
		return fmt.Errorf("proto: BreakerCooldownSlots %d negative", l.BreakerCooldownSlots)
	case l.BreakerTolerance < 0:
		return fmt.Errorf("proto: BreakerTolerance %v negative", l.BreakerTolerance)
	}
	if l.Durable != nil {
		return l.Durable.validate()
	}
	return nil
}

// degrade applies the Section III-C safe default for a failed slot: an
// explicit zero-price, no-grant broadcast (so tenants learn "no spot
// capacity" immediately instead of waiting out their price timeout) and
// the failure is recorded.
func (l *MarketLoop) degrade(slot, bids int, err error, root *otrace.Span) {
	l.slotErrors++
	// Degraded and breaker-open slots are exactly the ones worth a trace:
	// force the whole slot trace past head sampling (DESIGN §4i).
	root.ForceSample()
	root.SetBool("degraded", true)
	root.SetStr("error", err.Error())
	if l.Durable != nil {
		// Degraded slots commit too (with no books delta): recovery must know
		// the slot was consumed, or a restart would re-run it against a
		// journal that already recorded the degradation.
		ws := l.Tracer.StartChild("wal_commit", root)
		l.Durable.commitSlot(l.Operator, l.Server, slot, nil)
		ws.End()
	}
	bs := l.Tracer.StartChild("broadcast", root)
	l.Server.BroadcastTraced(slot, 0, nil, l.RackID, bs)
	bs.End()
	om := l.Operator.Metrics()
	if errors.Is(err, ErrBreakerOpen) {
		root.SetBool("breaker_open", true)
		om.ObserveBreakerOpenSlot()
	} else {
		om.ObserveDegradedSlot()
	}
	l.appendJournal(metrics.SlotEvent{Slot: slot, Bids: bids, Degraded: true, Err: err.Error()})
	if l.OnSlotError != nil {
		l.OnSlotError(slot, err)
	}
	root.End()
}

// appendJournal stamps and writes one slot event; a nil Journal is free.
// Journal write errors are sticky inside the Journal and must never stop
// the market, so the append result is deliberately dropped here.
func (l *MarketLoop) appendJournal(ev metrics.SlotEvent) {
	if l.Journal == nil {
		return
	}
	ev.UnixMicros = time.Now().UnixMicro()
	if l.FaultCounts != nil {
		ev.FaultDrops, ev.FaultDelays, ev.FaultSevers = l.FaultCounts()
	}
	_ = l.Journal.Append(ev)
}

// writeJournalHeader lazily writes the schema header as the journal's
// first line: the static half of a deterministic replay (topology, market
// options, prediction factor, slot length). Wired here rather than at
// journal construction so the journal package stays free of operator and
// power types.
func (l *MarketLoop) writeJournalHeader() {
	if l.Journal == nil || l.Journal.HasHeader() {
		return
	}
	topo := l.Operator.Topology()
	mo := l.Operator.MarketOptions()
	h := metrics.JournalHeader{
		UPSCapacity:     topo.UPSCapacity,
		PDUCapacity:     make([]float64, len(topo.PDUs)),
		Racks:           make([]metrics.JournalRack, len(topo.Racks)),
		PriceStep:       mo.PriceStep,
		ReservePrice:    mo.ReservePrice,
		Ration:          mo.Ration,
		Algorithm:       mo.Algorithm.String(),
		UnderPrediction: l.Operator.PredictOptions().UnderPredictionFactor,
		SlotHours:       l.Clock.SlotLen().Hours(),
	}
	if l.CheckEmergencies {
		h.BreakerTolerance = l.BreakerTolerance
		if rc, on := l.Operator.EmergencyResponder(); on {
			h.EmergencyResponder = true
			h.EmergencyEscalation = rc.EscalationSeverity
		}
	}
	for i, p := range topo.PDUs {
		h.PDUCapacity[i] = p.Capacity
	}
	for i, r := range topo.Racks {
		h.Racks[i] = metrics.JournalRack{
			ID: r.ID, Tenant: r.Tenant, PDU: r.PDU,
			Guaranteed: r.Guaranteed, Headroom: r.SpotHeadroom,
		}
	}
	_ = l.Journal.Header(h)
}

// captureInputs fills the event's full-input fields for a cleared slot: the
// bids, the reading, the predicted spot capacities, and the grants. Nothing
// is copied: the event borrows the reading's and the outcome's slices and
// the loop's own scratch, which is sound because Journal.Append serializes
// the event before the slot ends (metrics.SlotEvent). Degraded slots are
// not captured: their readings may be corrupt, and their outcome (no
// grants, no revenue) is fully described by the v1 fields plus Err.
func (l *MarketLoop) captureInputs(ev *metrics.SlotEvent, bids []core.Bid, rd power.Reading, out operator.SlotOutcome) {
	ev.Algorithm = out.Result.Algorithm.String()
	ev.Evaluations = out.Result.Evaluations
	ev.PDUSpot = out.Spot.PDUWatts
	ev.UPSSpot = out.Spot.UPSWatts
	ev.RackWatts = rd.RackWatts
	ev.OtherPDUWatts = rd.OtherPDUWatts
	set := l.bidSet[:0]
	for _, b := range bids {
		lb, ok := b.Fn.(core.LinearBid)
		if !ok {
			// A demand function with no four-parameter wire form cannot
			// be journaled; mark the capture partial so replay falls
			// back to outcome-level checks.
			set = set[:0]
			ev.InputsTruncated = true
			break
		}
		set = append(set, metrics.BidRecord{
			Rack: b.Rack, Tenant: b.Tenant,
			DMax: lb.DMax, DMin: lb.DMin, QMin: lb.QMin, QMax: lb.QMax,
		})
	}
	l.bidSet, ev.BidSet = set, set
	grants := l.grantSet[:0]
	for _, a := range out.Result.Allocations {
		if a.Watts > 0 {
			grants = append(grants, metrics.GrantRecord{Rack: a.Rack, Watts: a.Watts})
		}
	}
	l.grantSet, ev.GrantSet = grants, grants
}

// captureEmergency fills the event's responder fields: the suspensions
// applied to this slot's prediction (RunSlot), and the reclaims/restores
// the responder issued from this slot's reading (ObserveEmergencies). All
// empty when the responder is off, keeping such journals byte-identical.
func captureEmergency(ev *metrics.SlotEvent, op *operator.Operator) {
	pdus, ups := op.AppliedSuspensions()
	ev.SuspendedPDUs = pdus
	ev.SuspendedUPS = ups
	for _, plan := range op.LastReclaims() {
		rec := metrics.ReclaimRecord{
			Level: plan.Level, PDU: plan.PDU,
			LoadWatts: plan.Load, CapacityWatts: plan.Capacity,
			SpotCutWatts: plan.SpotReclaimed, GuaranteedCutWatts: plan.GuaranteedReclaimed,
			Escalated: plan.Escalated,
		}
		for _, t := range plan.Targets {
			rec.Budgets = append(rec.Budgets, metrics.BudgetRecord{
				Rack: t.Rack, BudgetWatts: t.BudgetWatts,
				SpotCut: t.SpotCut, GuaranteedCut: t.GuaranteedCut,
			})
		}
		ev.Reclaims = append(ev.Reclaims, rec)
	}
	for _, plan := range op.LastRestores() {
		if plan.PDU < 0 {
			ev.RestoredUPS = true
		} else {
			ev.RestoredPDUs = append(ev.RestoredPDUs, plan.PDU)
		}
	}
}

// collectBudgetResets merges the responder's latest reclaims and restores
// into per-rack budgets for one budget_reset broadcast. Reclaims are
// inserted first and restores after, matching the order the operator
// applied its own hooks in, so the tenant-side and operator-side budgets
// for a rack always agree.
func collectBudgetResets(op *operator.Operator) map[int]float64 {
	reclaims, restores := op.LastReclaims(), op.LastRestores()
	if len(reclaims) == 0 && len(restores) == 0 {
		return nil
	}
	budgets := make(map[int]float64)
	for _, plan := range reclaims {
		for _, t := range plan.Targets {
			budgets[t.Rack] = t.BudgetWatts
		}
	}
	for _, plan := range restores {
		for _, t := range plan.Targets {
			budgets[t.Rack] = t.BudgetWatts
		}
	}
	return budgets
}

// RunSlots executes the loop for the given slots, sleeping until each
// slot's boundary. For simulation-speed tests use a clock with millisecond
// slots. It returns the number of slots that cleared successfully; slots
// whose clearing failed degrade to a zero-price broadcast and are counted
// by SlotErrors. The returned error is non-nil only for configuration
// errors and for a BeforeBids refusal — per-slot failures never stop the
// market.
func (l *MarketLoop) RunSlots(fromSlot, slots int) (int, error) {
	if err := l.validate(); err != nil {
		return 0, err
	}
	if slots <= 0 {
		return 0, fmt.Errorf("%w: slots %d", ErrProtocol, slots)
	}
	slotHours := l.Clock.SlotLen().Hours()
	l.writeJournalHeader()
	cleared := 0
	for slot := fromSlot; slot < fromSlot+slots; slot++ {
		select {
		case <-l.Stop:
			return cleared, nil
		default:
		}
		if wait := time.Until(l.Clock.StartOf(slot)); wait > 0 {
			select {
			case <-l.Stop:
				return cleared, nil
			case <-time.After(wait):
			}
		}
		root := l.Tracer.StartRoot("slot", slot)
		l.curTrace = root.Context()
		bd := l.Tracer.StartChild("bid_drain", root)
		if l.BeforeBids != nil {
			if err := l.BeforeBids(slot); err != nil {
				bd.End()
				root.End()
				return cleared, err
			}
		}
		// Always drain the slot's bids, even when degraded: collection
		// advances the acceptance window and prunes the bid map.
		bids := l.Server.TakeBids(slot)
		bd.SetInt("bids", int64(len(bids)))
		bd.End()
		root.SetInt("bids", int64(len(bids)))
		if l.tripped {
			if l.BreakerCooldownSlots == 0 || l.cooldown > 0 {
				if l.cooldown > 0 {
					l.cooldown--
				}
				l.degrade(slot, len(bids), ErrBreakerOpen, root)
				continue
			}
			// Half-open: fall through and let this slot probe the market.
		}
		rd := l.Reading(slot)
		l.Operator.SetTraceParent(root)
		out, err := l.Operator.RunSlot(bids, rd, slotHours)
		l.Operator.SetTraceParent(nil)
		if err != nil {
			l.consecFails++
			if l.MaxConsecutiveFailures > 0 && l.consecFails >= l.MaxConsecutiveFailures {
				l.tripped = true
				l.cooldown = l.BreakerCooldownSlots
				l.Operator.Metrics().SetBreakerOpen(true)
			}
			l.degrade(slot, len(bids), fmt.Errorf("proto: slot %d: %w", slot, err), root)
			continue
		}
		l.consecFails = 0
		if l.tripped {
			l.Operator.Metrics().SetBreakerOpen(false)
		}
		l.tripped = false
		emergencyChecked := false
		if l.CheckEmergencies {
			// Observe the slot's realized reading; with a responder this
			// plans reclamation and applies operator-side budget resets.
			// Tenant-side resets go out before the price broadcast so a
			// capping tenant reacts within the same slot.
			es := l.Tracer.StartChild("emergencies", root)
			before := l.Operator.EmergencySlots()
			l.Operator.ObserveEmergencies(rd, l.BreakerTolerance)
			if l.Operator.EmergencySlots() > before {
				// Emergency slots are force-sampled: the excursion and its
				// reclamation are what the trace is for.
				es.SetBool("emergency", true)
				root.ForceSample()
			}
			es.End()
			emergencyChecked = true
		}
		if l.Durable != nil {
			// Commit point: the slot's books delta and post-slot responder
			// state hit the WAL before any tenant hears the outcome, so a
			// crash on either side of the broadcast recovers consistently.
			ws := l.Tracer.StartChild("wal_commit", root)
			commit := l.Operator.LastSlotCommit(out, slotHours)
			l.Durable.commitSlot(l.Operator, l.Server, slot, &commit)
			ws.End()
		}
		bs := l.Tracer.StartChild("broadcast", root)
		if emergencyChecked {
			if budgets := collectBudgetResets(l.Operator); len(budgets) > 0 {
				l.Server.BroadcastBudgetResetTraced(slot, budgets, bs)
			}
		}
		l.Server.BroadcastTraced(slot, out.Result.Price, out.Result.Allocations, l.RackID, bs)
		bs.End()
		root.SetFloat("price", out.Result.Price)
		root.SetFloat("sold_watts", out.Result.TotalWatts)
		if l.Journal != nil {
			grants := 0
			for _, a := range out.Result.Allocations {
				if a.Watts > 0 {
					grants++
				}
			}
			ev := metrics.SlotEvent{
				Slot:        slot,
				Price:       out.Result.Price,
				SoldWatts:   out.Result.TotalWatts,
				Revenue:     out.RevenueThisSlot,
				Grants:      grants,
				Bids:        len(bids),
				ClearMicros: out.ClearDuration.Microseconds(),
			}
			l.captureInputs(&ev, bids, rd, out)
			if emergencyChecked {
				captureEmergency(&ev, l.Operator)
			}
			l.appendJournal(ev)
		}
		if l.OnSlot != nil {
			l.OnSlot(slot, out, len(bids))
		}
		root.End()
		cleared++
	}
	return cleared, nil
}
