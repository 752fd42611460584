// Package audit is SpotDC's offline conservation checker: it re-verifies
// the paper's settlement invariants over a slot journal after the fact.
//
// The split with the inline checker (core.Auditor, attached via
// core.Options.Audit) is a cost budget: inline auditing runs on the
// clearing path and is limited to one allocation-free O(bids) pass, while
// this package replays a full-input (schema v2 or v3) journal through the real prediction and
// clearing code — re-running every inline invariant plus the expensive
// ones (bit-identical reproduction, exact-vs-scan engine agreement,
// journal-level revenue reconciliation) with no latency constraint.
//
// Determinism is the load-bearing property: a v2 journal records the full
// inputs of every cleared slot (bids in submission order, the power
// reading, the predicted spot capacities), and JSON's shortest round-trip
// float encoding is exact, so replaying a slot through the recorded engine
// must reproduce Price, TotalWatts, RevenueRate, Evaluations, and every
// grant bit for bit. Any difference is a real divergence — nondeterminism,
// a version skew, or a tampered journal — not rounding noise.
package audit

import (
	"fmt"
	"io"
	"math"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/stats"
)

// Tolerances. feasEps/revEps mirror the core market's internal epsilons
// (watts and $/h); relEps covers re-association error when sums are folded
// in a different order than the engine folded them (DESIGN.md §4e).
const (
	feasEps = 1e-9
	revEps  = 1e-9
	relEps  = 1e-12
)

// DefaultAgreementRel is the default cross-engine relative revenue
// tolerance: scan quantizes the price to PriceStep, so its optimum may
// trail the exact engine's by up to one step's worth of revenue; 1% covers
// every configuration the experiments run.
const DefaultAgreementRel = 0.01

// Violation is one failed invariant.
type Violation struct {
	// Slot is the market slot index, or -1 for journal-level violations.
	Slot int
	// Check names the invariant ("replay/price", "conservation/pdu", ...).
	Check string
	// Detail is the human-readable specifics.
	Detail string
}

func (v Violation) String() string {
	if v.Slot < 0 {
		return fmt.Sprintf("journal: %s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("slot %d: %s: %s", v.Slot, v.Check, v.Detail)
}

// Options tunes a journal check.
type Options struct {
	// EngineCheck additionally clears every replayable slot through the
	// engine that did NOT produce it and asserts revenue agreement —
	// the expensive cross-engine invariant.
	EngineCheck bool
	// AgreementRel is the relative revenue tolerance for EngineCheck
	// (DefaultAgreementRel when 0).
	AgreementRel float64
	// Logf, if non-nil, narrates progress (the CLI's -v).
	Logf func(format string, args ...interface{})
}

// Report summarizes one journal check.
type Report struct {
	// Header is the journal's v2 header (nil for a v1 journal).
	Header *metrics.JournalHeader
	// Slots / Cleared / Degraded count the journal's events.
	Slots    int
	Cleared  int
	Degraded int
	// Replayed counts cleared slots re-run through the clearing engine
	// (requires a v2 journal with full-input capture); OutcomeOnly counts
	// cleared slots checked at the outcome level only (v1 journals, or
	// events with InputsTruncated).
	Replayed    int
	OutcomeOnly int
	// TornTail reports that the journal ended in a torn (partially
	// written) final line — the signature of a crashed writer — which the
	// reader dropped before checking. Not a violation: every complete
	// event still verifies, the run just ended mid-append.
	TornTail bool
	// TotalRevenue is the compensated sum of per-slot revenue in $ —
	// callers reconcile it against the operator's or simulator's books.
	TotalRevenue float64
	// Violations lists every failed invariant, in journal order.
	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when every invariant held, otherwise an error naming the
// first violation and the total count.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("audit: %d violation(s), first: %s", len(r.Violations), r.Violations[0])
}

func (r *Report) violate(slot int, check, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Slot: slot, Check: check, Detail: fmt.Sprintf(format, args...)})
}

// Replay reads a slot journal and checks it (see CheckJournal). A torn
// final line — a crashed writer's partial append — is dropped and flagged
// in Report.TornTail rather than failing the read.
func Replay(in io.Reader, opts Options) (*Report, error) {
	hdr, events, torn, err := metrics.ReadJournalInfo(in)
	if err != nil {
		return nil, err
	}
	if torn && opts.Logf != nil {
		opts.Logf("audit: journal tail torn mid-append; dropped partial final line")
	}
	rep, err := CheckJournal(hdr, events, opts)
	if rep != nil {
		rep.TornTail = torn
	}
	return rep, err
}

// replayer holds the reconstructed market a v2 journal clears against.
type replayer struct {
	topo    *power.Topology
	market  *core.Market
	baseOpt core.Options
	predict power.PredictOptions
	// inline is the core.Auditor attached to the replay market; its
	// violations are folded into the report per slot.
	inline     *core.Auditor
	inlineErrs []error
	spotUsers  map[int]bool
}

// newReplayer rebuilds topology and market from a v2 header.
func newReplayer(hdr *metrics.JournalHeader) (*replayer, error) {
	pdus := make([]power.PDU, len(hdr.PDUCapacity))
	for i, c := range hdr.PDUCapacity {
		pdus[i] = power.PDU{ID: fmt.Sprintf("pdu-%d", i), Capacity: c}
	}
	racks := make([]power.Rack, len(hdr.Racks))
	for i, r := range hdr.Racks {
		racks[i] = power.Rack{ID: r.ID, Tenant: r.Tenant, PDU: r.PDU, Guaranteed: r.Guaranteed, SpotHeadroom: r.Headroom}
	}
	topo, err := power.NewTopology(hdr.UPSCapacity, pdus, racks)
	if err != nil {
		return nil, fmt.Errorf("audit: header topology: %w", err)
	}
	rp := &replayer{
		topo:      topo,
		predict:   power.PredictOptions{UnderPredictionFactor: hdr.UnderPrediction},
		spotUsers: make(map[int]bool, len(racks)),
	}
	rp.inline = &core.Auditor{OnViolation: func(err error) { rp.inlineErrs = append(rp.inlineErrs, err) }}
	cons := core.Constraints{
		RackHeadroom: make([]float64, len(racks)),
		RackPDU:      make([]int, len(racks)),
		PDUSpot:      append([]float64(nil), hdr.PDUCapacity...),
		UPSSpot:      hdr.UPSCapacity,
	}
	for i, r := range racks {
		cons.RackHeadroom[i] = r.SpotHeadroom
		cons.RackPDU[i] = r.PDU
	}
	rp.baseOpt = core.Options{
		PriceStep:    hdr.PriceStep,
		ReservePrice: hdr.ReservePrice,
		Ration:       hdr.Ration,
		Audit:        rp.inline,
	}
	rp.market, err = core.NewMarket(cons, rp.baseOpt)
	if err != nil {
		return nil, fmt.Errorf("audit: header market: %w", err)
	}
	return rp, nil
}

// bids converts a journaled bid set back to market bids.
func (rp *replayer) bids(set []metrics.BidRecord) []core.Bid {
	out := make([]core.Bid, len(set))
	for i, br := range set {
		out[i] = core.Bid{
			Rack:   br.Rack,
			Tenant: br.Tenant,
			Fn:     core.LinearBid{DMax: br.DMax, DMin: br.DMin, QMin: br.QMin, QMax: br.QMax},
		}
	}
	return out
}

// clearAs re-clears the slot's bids with a specific engine against the
// recorded spot capacities.
func (rp *replayer) clearAs(algo core.Algorithm, ev metrics.SlotEvent, bids []core.Bid) (core.Result, error) {
	opt := rp.baseOpt
	opt.Algorithm = algo
	m, err := core.NewMarket(rp.market.Constraints(), opt)
	if err != nil {
		return core.Result{}, err
	}
	if err := m.SetSpot(ev.PDUSpot, ev.UPSSpot); err != nil {
		return core.Result{}, err
	}
	return m.Clear(bids)
}

// CheckJournal runs every invariant the journal's schema supports and
// returns the report. It never fails on violations — inspect Report.Err;
// the error return is reserved for a journal too malformed to check
// (e.g. a v2 header that does not describe a valid topology).
func CheckJournal(hdr *metrics.JournalHeader, events []metrics.SlotEvent, opts Options) (*Report, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	agreeRel := opts.AgreementRel
	if agreeRel <= 0 {
		agreeRel = DefaultAgreementRel
	}
	rep := &Report{Header: hdr, Slots: len(events)}

	var rp *replayer
	if hdr != nil {
		var err error
		if rp, err = newReplayer(hdr); err != nil {
			return nil, err
		}
	}

	var revenue stats.Neumaier
	prevSlot := math.MinInt64
	for _, ev := range events {
		if ev.Slot <= prevSlot {
			rep.violate(ev.Slot, "journal/order", "slot index not increasing (previous %d)", prevSlot)
		}
		prevSlot = ev.Slot
		revenue.Add(ev.Revenue)

		if ev.Degraded {
			rep.Degraded++
			// A degraded slot is the Section III-C safe default: zero price,
			// nothing sold, nothing billed — a single surviving line item
			// would be a billing leak.
			if ev.Price != 0 || ev.SoldWatts != 0 || ev.Revenue != 0 || ev.Grants != 0 || len(ev.GrantSet) != 0 {
				rep.violate(ev.Slot, "degraded/zero",
					"degraded slot carries price %v, %v W, $%v, %d grants (want all zero)",
					ev.Price, ev.SoldWatts, ev.Revenue, ev.Grants)
			}
			continue
		}
		rep.Cleared++
		checkOutcome(rep, hdr, ev)

		if rp == nil || ev.InputsTruncated || (len(ev.BidSet) == 0 && ev.Bids > 0) {
			rep.OutcomeOnly++
			continue
		}
		rep.Replayed++
		replaySlot(rep, rp, hdr, ev, opts.EngineCheck, agreeRel)
	}

	rep.TotalRevenue = revenue.Sum()
	logf("audit: %d slots (%d cleared, %d degraded): %d replayed, %d outcome-only, %d violations",
		rep.Slots, rep.Cleared, rep.Degraded, rep.Replayed, rep.OutcomeOnly, len(rep.Violations))
	return rep, nil
}

// checkOutcome runs the outcome-level invariants available for any cleared
// event, v1 or v2.
func checkOutcome(rep *Report, hdr *metrics.JournalHeader, ev metrics.SlotEvent) {
	if ev.Price < 0 || ev.SoldWatts < 0 || ev.Revenue < 0 {
		rep.violate(ev.Slot, "outcome/sign", "negative price/watts/revenue: %v / %v / %v",
			ev.Price, ev.SoldWatts, ev.Revenue)
	}
	if ev.GrantSet != nil && ev.Grants != len(ev.GrantSet) {
		rep.violate(ev.Slot, "outcome/grants", "%d grants but %d grant records", ev.Grants, len(ev.GrantSet))
	}
	if hdr != nil {
		// Revenue == Price × SoldWatts / 1000 × SlotHours up to association
		// error (bitwise equality is asserted on the replay path, which
		// recomputes in the engine's own operation order).
		want := ev.Price * ev.SoldWatts / 1000 * hdr.SlotHours
		if d := math.Abs(ev.Revenue - want); d > revEps+relEps*math.Abs(want) {
			rep.violate(ev.Slot, "outcome/revenue",
				"revenue $%v, want price×watts/1000×hours = $%v (Δ %g)", ev.Revenue, want, d)
		}
	}
	if ev.GrantSet != nil && hdr != nil {
		// The slot's billed revenue must equal the sum of its line items:
		// price × grant × hours over the grant set.
		var billed stats.Neumaier
		for _, g := range ev.GrantSet {
			billed.Add(ev.Price * g.Watts / 1000 * hdr.SlotHours)
		}
		if d := math.Abs(billed.Sum() - ev.Revenue); d > revEps+relEps*math.Abs(ev.Revenue) {
			rep.violate(ev.Slot, "outcome/billing",
				"grant line items sum to $%v, slot billed $%v (Δ %g)", billed.Sum(), ev.Revenue, d)
		}
	}
}

// replaySlot re-runs one fully-captured slot through prediction and the
// recorded clearing engine, asserting bit-identical reproduction, then
// optionally through the other engine for the agreement invariant.
func replaySlot(rep *Report, rp *replayer, hdr *metrics.JournalHeader, ev metrics.SlotEvent, engineCheck bool, agreeRel float64) {
	// 1. Prediction: the recorded spot capacities must reproduce from the
	// recorded reading (Section III-C, Eqns. 3–4).
	if len(ev.RackWatts) == len(hdr.Racks) {
		rd := power.Reading{RackWatts: ev.RackWatts, OtherPDUWatts: ev.OtherPDUWatts}
		popt := rp.predict
		if len(ev.BidSet) > 0 {
			for k := range rp.spotUsers {
				delete(rp.spotUsers, k)
			}
			for _, b := range ev.BidSet {
				rp.spotUsers[b.Rack] = true
			}
			popt.SpotUsers = rp.spotUsers
		}
		spot, err := rp.topo.PredictSpot(rd, popt)
		if err != nil {
			rep.violate(ev.Slot, "replay/predict", "PredictSpot failed: %v", err)
			return
		}
		// Emergency suspensions: the journal records the prediction AFTER
		// the operator zeroed suspended elements out of it, alongside which
		// elements those were — apply the same zeroing before comparing.
		for _, m := range ev.SuspendedPDUs {
			if m >= 0 && m < len(spot.PDUWatts) {
				spot.PDUWatts[m] = 0
			}
		}
		if ev.SuspendedUPS {
			spot.UPSWatts = 0
		}
		if spot.UPSWatts != ev.UPSSpot {
			rep.violate(ev.Slot, "replay/predict", "UPS spot %v W, journal %v W", spot.UPSWatts, ev.UPSSpot)
		}
		for i, w := range spot.PDUWatts {
			if i < len(ev.PDUSpot) && w != ev.PDUSpot[i] {
				rep.violate(ev.Slot, "replay/predict", "PDU %d spot %v W, journal %v W", i, w, ev.PDUSpot[i])
			}
		}
		if hdr.EmergencyResponder {
			replayReclaims(rep, rp, hdr, ev, rd)
		}
	}

	// 2. Clearing: the recorded engine over the recorded bids and spot must
	// reproduce the outcome bit for bit (the recorded spot already carries
	// any suspension zeroing, so clearing replays unchanged).
	algo, err := core.ParseAlgorithm(ev.Algorithm)
	if err != nil || algo == core.AlgorithmAuto {
		rep.violate(ev.Slot, "replay/engine", "unreplayable engine %q", ev.Algorithm)
		return
	}
	bids := rp.bids(ev.BidSet)
	rp.inlineErrs = rp.inlineErrs[:0]
	res, err := rp.clearAs(algo, ev, bids)
	if err != nil {
		rep.violate(ev.Slot, "replay/clear", "re-clearing failed: %v", err)
		return
	}
	for _, ierr := range rp.inlineErrs {
		rep.violate(ev.Slot, "conservation/inline", "%v", ierr)
	}
	if res.Price != ev.Price {
		rep.violate(ev.Slot, "replay/price", "price %v, journal %v", res.Price, ev.Price)
	}
	if res.TotalWatts != ev.SoldWatts {
		rep.violate(ev.Slot, "replay/watts", "sold %v W, journal %v W", res.TotalWatts, ev.SoldWatts)
	}
	if res.Evaluations != ev.Evaluations {
		rep.violate(ev.Slot, "replay/evals", "%d evaluations, journal %d", res.Evaluations, ev.Evaluations)
	}
	if rev := res.RevenueRate * hdr.SlotHours; rev != ev.Revenue {
		rep.violate(ev.Slot, "replay/revenue", "revenue $%v, journal $%v", rev, ev.Revenue)
	}
	grants := make([]metrics.GrantRecord, 0, len(ev.GrantSet))
	for _, a := range res.Allocations {
		if a.Watts > 0 {
			grants = append(grants, metrics.GrantRecord{Rack: a.Rack, Watts: a.Watts})
		}
	}
	if len(grants) != len(ev.GrantSet) {
		rep.violate(ev.Slot, "replay/grants", "%d grants, journal %d", len(grants), len(ev.GrantSet))
	} else {
		for i, g := range grants {
			if g != ev.GrantSet[i] {
				rep.violate(ev.Slot, "replay/grants", "grant %d = %+v, journal %+v", i, g, ev.GrantSet[i])
			}
		}
	}

	// 3. Emergency reclamation — checked inside the prediction block above:
	// replayReclaims re-detects the slot's excursions from the recorded
	// reading and re-plans them through operator.PlanReclaim, asserting the
	// journaled reclaim events reproduce bit for bit.

	// 4. Demand consistency: every replayed grant must be what the bid's
	// demand function asks at the clearing price, clamped to headroom —
	// except under rationing, which scales over-demanded PDUs down.
	if !hdr.Ration {
		cons := rp.market.Constraints()
		for i, b := range bids {
			want := b.Fn.Demand(res.Price)
			if hr := cons.RackHeadroom[b.Rack]; want > hr {
				want = hr
			}
			if want < 0 {
				want = 0
			}
			if got := res.Allocations[i].Watts; math.Abs(got-want) > feasEps {
				rep.violate(ev.Slot, "replay/demand",
					"rack %d granted %v W, demand at price %v is %v W", b.Rack, got, res.Price, want)
			}
		}
	}

	// 5. Engine agreement: both engines must find (within tolerance) the
	// same revenue-optimal clearing — scan quantizes to the price grid, so
	// exact may lead by a sliver, but a larger gap means one engine is
	// wrong (the class of bug PR 1 fixed).
	if engineCheck {
		other := core.AlgorithmScan
		if algo == core.AlgorithmScan {
			other = core.AlgorithmExact
		}
		ores, err := rp.clearAs(other, ev, bids)
		if err != nil {
			rep.violate(ev.Slot, "agreement/clear", "%v engine failed: %v", other, err)
			return
		}
		exactRev, scanRev := res.RevenueRate, ores.RevenueRate
		if algo == core.AlgorithmScan {
			exactRev, scanRev = ores.RevenueRate, res.RevenueRate
		}
		if exactRev < scanRev-revEps {
			rep.violate(ev.Slot, "agreement/optimal",
				"exact revenue $%v/h below scan $%v/h (exact must never trail the grid)", exactRev, scanRev)
		}
		scale := math.Max(math.Abs(exactRev), math.Abs(scanRev))
		if d := math.Abs(exactRev - scanRev); d > revEps+agreeRel*scale {
			rep.violate(ev.Slot, "agreement/revenue",
				"engines disagree: exact $%v/h vs scan $%v/h (Δ %g > %v relative)", exactRev, scanRev, d, agreeRel)
		}
	}
}

// replayReclaims re-runs the responder's planning for one cleared slot:
// re-detect excursions from the recorded reading with the header's breaker
// tolerance, re-plan each through operator.PlanReclaim with the slot's own
// grants as weights, and assert the journaled reclaim events match bit for
// bit. PlanReclaim is a pure function and JSON round-trips float64 exactly,
// so any difference is a real divergence.
func replayReclaims(rep *Report, rp *replayer, hdr *metrics.JournalHeader, ev metrics.SlotEvent, rd power.Reading) {
	ems := rp.topo.CheckEmergencies(rd, hdr.BreakerTolerance)
	if len(ems) != len(ev.Reclaims) {
		rep.violate(ev.Slot, "replay/reclaim",
			"reading shows %d excursions, journal records %d reclaims", len(ems), len(ev.Reclaims))
		return
	}
	if len(ems) == 0 {
		return
	}
	// The responder weighted cuts by the slot's cleared grants.
	grants := make([]float64, len(hdr.Racks))
	for _, g := range ev.GrantSet {
		if g.Rack >= 0 && g.Rack < len(grants) {
			grants[g.Rack] += g.Watts
		}
	}
	for i, em := range ems {
		rec := ev.Reclaims[i]
		plan := operator.PlanReclaim(rp.topo, em, rd.RackWatts, grants, hdr.EmergencyEscalation)
		if plan.Level != rec.Level || plan.PDU != rec.PDU {
			rep.violate(ev.Slot, "replay/reclaim", "excursion %d at %s/%d, journal %s/%d",
				i, plan.Level, plan.PDU, rec.Level, rec.PDU)
			continue
		}
		if plan.Load != rec.LoadWatts || plan.Capacity != rec.CapacityWatts {
			rep.violate(ev.Slot, "replay/reclaim", "%s %d load/capacity %v/%v W, journal %v/%v W",
				plan.Level, plan.PDU, plan.Load, plan.Capacity, rec.LoadWatts, rec.CapacityWatts)
		}
		if plan.SpotReclaimed != rec.SpotCutWatts || plan.GuaranteedReclaimed != rec.GuaranteedCutWatts ||
			plan.Escalated != rec.Escalated {
			rep.violate(ev.Slot, "replay/reclaim",
				"%s %d cuts %v spot + %v guaranteed (escalated=%v), journal %v + %v (escalated=%v)",
				plan.Level, plan.PDU, plan.SpotReclaimed, plan.GuaranteedReclaimed, plan.Escalated,
				rec.SpotCutWatts, rec.GuaranteedCutWatts, rec.Escalated)
		}
		if len(plan.Targets) != len(rec.Budgets) {
			rep.violate(ev.Slot, "replay/reclaim", "%s %d plans %d budget resets, journal %d",
				plan.Level, plan.PDU, len(plan.Targets), len(rec.Budgets))
			continue
		}
		for j, t := range plan.Targets {
			b := rec.Budgets[j]
			if t.Rack != b.Rack || t.BudgetWatts != b.BudgetWatts ||
				t.SpotCut != b.SpotCut || t.GuaranteedCut != b.GuaranteedCut {
				rep.violate(ev.Slot, "replay/reclaim",
					"%s %d budget %d = rack %d → %v W (spot %v, guaranteed %v), journal rack %d → %v W (spot %v, guaranteed %v)",
					plan.Level, plan.PDU, j, t.Rack, t.BudgetWatts, t.SpotCut, t.GuaranteedCut,
					b.Rack, b.BudgetWatts, b.SpotCut, b.GuaranteedCut)
			}
		}
	}
}
