// Emergency response and spot reclamation (Section III-C, Fig. 6): when a
// PDU or the UPS exceeds its capacity by more than the breaker tolerance,
// the operator reclaims capacity by power-capping spot users first —
// proportionally to their granted spot capacity, never below their
// guaranteed capacity — and escalates to pro-rata guaranteed curtailment
// only past a configurable severity. Affected elements stop selling spot
// capacity until readings stay healthy for RecoverySlots consecutive
// slots, after which budgets are restored to guaranteed + headroom.
//
// The planner is a pure function of (topology, emergency, reading, grants)
// so reclaim events replay deterministically from the slot journal.
package operator

import (
	"fmt"
	"sync"

	"spotdc/internal/power"
)

// reclaimEps absorbs float dust in the waterfill: residuals below it count
// as fully distributed.
const reclaimEps = 1e-9

// ReclaimTarget is one rack's budget reset within a reclaim plan: the rack
// is capped to BudgetWatts, of which SpotCut watts came out of its draw
// above guaranteed capacity and GuaranteedCut out of the guarantee itself
// (escalation only).
type ReclaimTarget struct {
	Rack          int
	BudgetWatts   float64
	SpotCut       float64
	GuaranteedCut float64
}

// ReclaimPlan is the responder's answer to one capacity excursion: per-rack
// budget resets that bring the element's measured load back to its
// capacity, cutting spot users first.
type ReclaimPlan struct {
	// Level is "PDU" or "UPS"; ID names the element; PDU indexes
	// Topology.PDUs or is -1 for the UPS.
	Level string
	ID    string
	PDU   int
	// Load and Capacity echo the emergency in watts.
	Load, Capacity float64
	// Targets lists the racks whose budgets change, in ascending rack
	// order. Racks needing no cut are omitted.
	Targets []ReclaimTarget
	// SpotReclaimed and GuaranteedReclaimed total the cuts by class.
	SpotReclaimed       float64
	GuaranteedReclaimed float64
	// Escalated reports that spot cuts alone could not cover the excess and
	// the overload fraction exceeded the escalation severity, so guaranteed
	// capacity was curtailed pro-rata.
	Escalated bool
}

// PlanReclaim computes per-rack budget resets for one emergency. Cuts are
// based on each rack's measured draw above its guaranteed capacity (the
// only load a budget reset can actually shed): the excess over capacity is
// distributed across spot users proportionally to their granted spot
// capacity, capped at what each rack has to give, with leftover spread
// over remaining reclaimable draw. Guaranteed capacity is untouchable
// below the escalation severity; past it, any excess spot cuts cannot
// cover is curtailed pro-rata to guaranteed capacity. The new budget is
// measured − cut, so a compliant rack's next reading removes exactly the
// planned watts.
//
// The function is deterministic and pure — identical inputs produce
// bit-identical plans — which is what lets the audit layer replay journal
// reclaim events exactly.
func PlanReclaim(topo *power.Topology, em power.Emergency, rackWatts, grants []float64, escalationSeverity float64) ReclaimPlan {
	plan := ReclaimPlan{Level: em.Level, ID: em.ID, PDU: em.PDU, Load: em.Load, Capacity: em.Capacity}
	excess := em.Load - em.Capacity
	if excess <= 0 {
		return plan
	}
	var racks []int
	if em.PDU >= 0 {
		racks = topo.RacksOfPDU(em.PDU)
	} else {
		racks = make([]int, len(topo.Racks))
		for i := range racks {
			racks[i] = i
		}
	}
	n := len(racks)
	if n == 0 {
		return plan
	}
	var (
		watts      = make([]float64, n) // measured draw
		above      = make([]float64, n) // reclaimable: draw above guaranteed
		cut        = make([]float64, n) // spot cut
		gcut       = make([]float64, n) // guaranteed cut (escalation only)
		weight     = make([]float64, n) // granted spot, for proportional cuts
		totalAbove float64
	)
	for j, r := range racks {
		w := 0.0
		if r < len(rackWatts) {
			w = rackWatts[r]
		}
		watts[j] = w
		if a := w - topo.Racks[r].Guaranteed; a > 0 {
			above[j] = a
			totalAbove += a
			if r < len(grants) {
				weight[j] = grants[r]
			}
		}
	}

	remaining := excess
	if remaining >= totalAbove {
		// Not enough spot draw to cover the excess: cap everyone at their
		// guarantee and let escalation (below) decide about the rest.
		copy(cut, above)
		remaining -= totalAbove
	} else {
		// Waterfill proportional to granted spot, cap-and-redistribute:
		// racks whose reclaimable draw fills up drop out and their share
		// flows to the rest. At most n passes empty the weighted set.
		for pass := 0; pass < n && remaining > reclaimEps; pass++ {
			tw := 0.0
			for j := range cut {
				if weight[j] > 0 && above[j]-cut[j] > reclaimEps {
					tw += weight[j]
				}
			}
			if tw <= 0 {
				break
			}
			r0 := remaining
			for j := range cut {
				if weight[j] <= 0 || above[j]-cut[j] <= reclaimEps {
					continue
				}
				share := r0 * weight[j] / tw
				if room := above[j] - cut[j]; share > room {
					share = room
				}
				cut[j] += share
				remaining -= share
			}
		}
		// Leftover — every weighted rack capped out, or no grants at all
		// (e.g. a slot that cleared nothing): spread over residual
		// reclaimable draw so the element still recovers.
		for pass := 0; pass < n && remaining > reclaimEps; pass++ {
			tr := 0.0
			for j := range cut {
				tr += above[j] - cut[j]
			}
			if tr <= reclaimEps {
				break
			}
			r0 := remaining
			for j := range cut {
				room := above[j] - cut[j]
				if room <= 0 {
					continue
				}
				share := r0 * room / tr
				if share > room {
					share = room
				}
				cut[j] += share
				remaining -= share
			}
		}
	}

	if remaining > reclaimEps && em.OverloadFraction() > escalationSeverity {
		// Severe excursion spot cuts cannot cover: curtail guaranteed
		// capacity pro-rata, never below zero draw.
		plan.Escalated = true
		for pass := 0; pass < n && remaining > reclaimEps; pass++ {
			tg := 0.0
			for j, r := range racks {
				if watts[j]-cut[j]-gcut[j] > reclaimEps && topo.Racks[r].Guaranteed > 0 {
					tg += topo.Racks[r].Guaranteed
				}
			}
			if tg <= 0 {
				break
			}
			r0 := remaining
			for j, r := range racks {
				g := topo.Racks[r].Guaranteed
				drawLeft := watts[j] - cut[j] - gcut[j]
				if g <= 0 || drawLeft <= reclaimEps {
					continue
				}
				share := r0 * g / tg
				if share > drawLeft {
					share = drawLeft
				}
				gcut[j] += share
				remaining -= share
			}
		}
	}

	for j, r := range racks {
		total := cut[j] + gcut[j]
		if total <= reclaimEps {
			continue
		}
		budget := watts[j] - total
		if budget < 0 {
			budget = 0
		}
		plan.Targets = append(plan.Targets, ReclaimTarget{
			Rack: r, BudgetWatts: budget, SpotCut: cut[j], GuaranteedCut: gcut[j],
		})
		plan.SpotReclaimed += cut[j]
		plan.GuaranteedReclaimed += gcut[j]
	}
	return plan
}

// ResponderConfig enables the operator's emergency responder: with
// Config.Emergency set, ObserveEmergencies no longer just counts
// excursions — it plans reclamation, pushes budget resets through the
// SetBudget hook, suspends spot sales at affected elements, and restores
// budgets once readings stay healthy. Leaving Config.Emergency nil keeps
// the operator bit-identical to the count-only behavior.
type ResponderConfig struct {
	// EscalationSeverity is the overload fraction past which the responder
	// may curtail guaranteed capacity (default 0.5 — a 50% excursion).
	// Below it, guaranteed capacity is untouchable even if spot cuts cannot
	// cover the excess.
	EscalationSeverity float64
	// RecoverySlots is how many consecutive healthy readings an element
	// needs before spot sales resume and budgets are restored (default 2).
	RecoverySlots int
	// SetBudget, if non-nil, applies one rack budget reset — typically
	// rackpdu.PDU.SetBudget. The responder fans resets out concurrently
	// across racks so each unit's ResetDelay is paid in parallel, keeping a
	// whole plan inside the ≥20 resets/s envelope.
	SetBudget func(rack int, budgetWatts float64) error
}

func (rc ResponderConfig) validate() error {
	if rc.EscalationSeverity < 0 {
		return fmt.Errorf("operator: emergency escalation severity %v negative", rc.EscalationSeverity)
	}
	if rc.RecoverySlots < 0 {
		return fmt.Errorf("operator: emergency recovery slots %d negative", rc.RecoverySlots)
	}
	return nil
}

func (rc ResponderConfig) normalized() ResponderConfig {
	if rc.EscalationSeverity == 0 {
		rc.EscalationSeverity = 0.5
	}
	if rc.RecoverySlots == 0 {
		rc.RecoverySlots = 2
	}
	return rc
}

// responderState lives on the Operator only when Config.Emergency is set.
// Everything here is touched from the slot loop goroutine; the only
// concurrency is the budget-reset fan-out, which joins before returning.
type responderState struct {
	cfg ResponderConfig

	// Per-PDU suspension: suspended elements sell no spot capacity; calm
	// counts consecutive healthy readings toward recovery; start is the
	// operator slot count when the suspension began (time-to-safe clock).
	suspendedPDU []bool
	calmPDU      []int
	startPDU     []int
	suspendedUPS bool
	calmUPS      int
	startUPS     int

	// lastGrants is the most recent cleared slot's granted spot per rack —
	// the proportional weights for PlanReclaim.
	lastGrants []float64

	// Per-slot outputs, valid until the next ObserveEmergencies call.
	lastReclaims []ReclaimPlan
	lastRestores []ReclaimPlan
	appliedPDU   []int // suspensions zeroed out of this slot's prediction
	appliedUPS   bool

	// Running totals for results and experiment tables.
	acted           int
	reclaimedWatts  float64
	guaranteedWatts float64
	involuntary     int

	hookMu       sync.Mutex
	hookFailures int
	lastHookErr  error
}

func newResponderState(cfg ResponderConfig, topo *power.Topology) *responderState {
	return &responderState{
		cfg:          cfg.normalized(),
		suspendedPDU: make([]bool, len(topo.PDUs)),
		calmPDU:      make([]int, len(topo.PDUs)),
		startPDU:     make([]int, len(topo.PDUs)),
		lastGrants:   make([]float64, len(topo.Racks)),
		appliedPDU:   make([]int, 0, len(topo.PDUs)),
	}
}

// EmergencyResponder returns the responder configuration and whether the
// emergency loop is enabled.
func (op *Operator) EmergencyResponder() (ResponderConfig, bool) {
	if op.responder == nil {
		return ResponderConfig{}, false
	}
	return op.responder.cfg, true
}

// LastReclaims returns the reclaim plans issued by the most recent
// ObserveEmergencies call (nil when the slot was healthy or the responder
// is disabled). Valid until the next call.
func (op *Operator) LastReclaims() []ReclaimPlan {
	if op.responder == nil {
		return nil
	}
	return op.responder.lastReclaims
}

// LastRestores returns the budget restorations (guaranteed + headroom)
// issued by the most recent ObserveEmergencies call as elements recovered.
// Valid until the next call.
func (op *Operator) LastRestores() []ReclaimPlan {
	if op.responder == nil {
		return nil
	}
	return op.responder.lastRestores
}

// AppliedSuspensions reports which elements' spot capacity the most recent
// RunSlot zeroed out of its prediction: the suspended PDU indices (shared
// slice, do not modify) and whether the UPS was suspended.
func (op *Operator) AppliedSuspensions() (pdus []int, ups bool) {
	if op.responder == nil {
		return nil, false
	}
	return op.responder.appliedPDU, op.responder.appliedUPS
}

// EmergenciesActed returns how many excursions the responder has planned
// reclamation for.
func (op *Operator) EmergenciesActed() int {
	if op.responder == nil {
		return 0
	}
	return op.responder.acted
}

// ReclaimedWatts returns the cumulative watts of budget cuts the responder
// has issued (spot + escalated guaranteed).
func (op *Operator) ReclaimedWatts() float64 {
	if op.responder == nil {
		return 0
	}
	return op.responder.reclaimedWatts
}

// GuaranteedCutWatts returns the cumulative guaranteed-capacity watts the
// responder curtailed under escalation. Zero means guaranteed tenants were
// never touched.
func (op *Operator) GuaranteedCutWatts() float64 {
	if op.responder == nil {
		return 0
	}
	return op.responder.guaranteedWatts
}

// InvoluntaryCuts returns how many budget resets invaded a rack's
// guaranteed capacity (the paper's involuntary power cuts).
func (op *Operator) InvoluntaryCuts() int {
	if op.responder == nil {
		return 0
	}
	return op.responder.involuntary
}

// HookFailures reports budget-reset hook errors: the count and the most
// recent error. The responder never aborts on a failed reset — a partial
// reclamation is still safer than none — so failures are surfaced here and
// counted in spotdc_operator_budget_reset_failures_total.
func (op *Operator) HookFailures() (int, error) {
	if op.responder == nil {
		return 0, nil
	}
	op.responder.hookMu.Lock()
	defer op.responder.hookMu.Unlock()
	return op.responder.hookFailures, op.responder.lastHookErr
}

// respondEmergencies runs the responder for one observed slot: plan and
// apply reclamation for each excursion, advance recovery clocks on
// suspended elements that read healthy, and restore budgets once an
// element has been calm for RecoverySlots. When multiple elements fail in
// the same slot the plans are applied in CheckEmergencies order (PDUs
// ascending, then UPS); a rack targeted twice keeps the later budget.
func (op *Operator) respondEmergencies(ems []power.Emergency, reading power.Reading) {
	rs := op.responder
	rs.lastReclaims = rs.lastReclaims[:0]
	rs.lastRestores = rs.lastRestores[:0]
	for _, em := range ems {
		plan := PlanReclaim(op.topo, em, reading.RackWatts, rs.lastGrants, rs.cfg.EscalationSeverity)
		op.suspendElement(em.PDU)
		op.applyBudgets(plan.Targets)
		rs.acted++
		rs.reclaimedWatts += plan.SpotReclaimed + plan.GuaranteedReclaimed
		rs.guaranteedWatts += plan.GuaranteedReclaimed
		for _, t := range plan.Targets {
			if t.GuaranteedCut > 0 {
				rs.involuntary++
			}
		}
		if op.met != nil {
			op.met.observeReclaim(plan)
		}
		rs.lastReclaims = append(rs.lastReclaims, plan)
	}
	// Recovery: a suspended element absent from this slot's emergency list
	// read healthy; RecoverySlots consecutive healthy readings restore it.
	inEmergency := func(pdu int) bool {
		for _, em := range ems {
			if em.PDU == pdu {
				return true
			}
		}
		return false
	}
	for m := range rs.suspendedPDU {
		if !rs.suspendedPDU[m] {
			continue
		}
		if inEmergency(m) {
			rs.calmPDU[m] = 0
			continue
		}
		rs.calmPDU[m]++
		if rs.calmPDU[m] >= rs.cfg.RecoverySlots {
			op.restoreElement(m)
		}
	}
	if rs.suspendedUPS {
		if inEmergency(-1) {
			rs.calmUPS = 0
		} else if rs.calmUPS++; rs.calmUPS >= rs.cfg.RecoverySlots {
			op.restoreElement(-1)
		}
	}
}

// suspendElement stops spot sales at a PDU (or the UPS for pdu -1) until
// recovery; re-suspending an already suspended element only resets its
// calm counter, keeping the original time-to-safe clock.
func (op *Operator) suspendElement(pdu int) {
	rs := op.responder
	if pdu < 0 {
		if !rs.suspendedUPS {
			rs.suspendedUPS = true
			rs.startUPS = op.slots
		}
		rs.calmUPS = 0
		return
	}
	if !rs.suspendedPDU[pdu] {
		rs.suspendedPDU[pdu] = true
		rs.startPDU[pdu] = op.slots
	}
	rs.calmPDU[pdu] = 0
}

// restoreElement ends a suspension: spot sales resume next slot and every
// rack under the element gets its full budget (guaranteed + headroom)
// back, recorded as a restore plan so the network layer re-broadcasts it.
func (op *Operator) restoreElement(pdu int) {
	rs := op.responder
	plan := ReclaimPlan{PDU: pdu}
	var racks []int
	var start int
	if pdu < 0 {
		plan.Level = "UPS"
		plan.ID = "UPS"
		racks = make([]int, len(op.topo.Racks))
		for i := range racks {
			racks[i] = i
		}
		start = rs.startUPS
		rs.suspendedUPS = false
		rs.calmUPS = 0
	} else {
		plan.Level = "PDU"
		plan.ID = op.topo.PDUs[pdu].ID
		racks = op.topo.RacksOfPDU(pdu)
		start = rs.startPDU[pdu]
		rs.suspendedPDU[pdu] = false
		rs.calmPDU[pdu] = 0
	}
	for _, r := range racks {
		rk := op.topo.Racks[r]
		plan.Targets = append(plan.Targets, ReclaimTarget{
			Rack: r, BudgetWatts: rk.Guaranteed + rk.SpotHeadroom,
		})
	}
	op.applyBudgets(plan.Targets)
	if op.met != nil {
		op.met.observeRecovery(float64(op.slots - start))
	}
	rs.lastRestores = append(rs.lastRestores, plan)
}

// applyBudgets pushes one plan's budget resets through the SetBudget hook,
// one goroutine per rack: rack PDUs serialize resets behind ResetDelay, so
// the fan-out pays those delays in parallel and a full-testbed plan stays
// well inside the ≥20 resets/s envelope. Returns after every reset lands.
func (op *Operator) applyBudgets(targets []ReclaimTarget) {
	rs := op.responder
	hook := rs.cfg.SetBudget
	if hook == nil || len(targets) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t ReclaimTarget) {
			defer wg.Done()
			if err := hook(t.Rack, t.BudgetWatts); err != nil {
				rs.hookMu.Lock()
				rs.hookFailures++
				rs.lastHookErr = err
				rs.hookMu.Unlock()
				if op.met != nil {
					op.met.resetFailures.Inc()
				}
			}
		}(t)
	}
	wg.Wait()
}
