package operator

import (
	"fmt"
	"sync"
	"time"

	"spotdc/internal/metrics"
	"spotdc/internal/power"
)

// Slot-status label values of spotdc_operator_slots_total.
const (
	slotStatusCleared     = "cleared"
	slotStatusDegraded    = "degraded"
	slotStatusBreakerOpen = "breaker_open"
)

// Metrics is the operator's pre-registered instrumentation handle set.
// Build one with NewMetrics, hand it to Config.Metrics, and the operator
// binds its per-PDU gauge children at construction time (so RunSlot's
// observe path is pure atomics — no label lookups, no allocation). The
// market-loop layer reports slot degradation and breaker transitions
// through the exported Observe/Set hooks.
//
// One Metrics may back several operators against a shared registry (the
// experiment fan-out); counters then aggregate across them while gauges
// reflect the most recent writer.
type Metrics struct {
	slotsCleared  *metrics.Counter
	slotsDegraded *metrics.Counter
	slotsBreaker  *metrics.Counter
	emergencies   *metrics.Counter

	// Emergency-responder instrumentation (emergency.go): excursions acted
	// on, watts reclaimed via budget resets, resets that invaded guaranteed
	// capacity, resets the SetBudget hook failed to apply, and the
	// suspension-to-recovery duration in slots.
	emergenciesActed *metrics.Counter
	reclaimedWatts   *metrics.Gauge // cumulative W, monotone (Add only)
	involuntaryCuts  *metrics.Counter
	resetFailures    *metrics.Counter
	timeToSafe       *metrics.Histogram

	predictedVec *metrics.GaugeVec
	soldVec      *metrics.GaugeVec
	predictedUPS *metrics.Gauge
	soldUPS      *metrics.Gauge

	margin      *metrics.Gauge
	breakerOpen *metrics.Gauge
	revenue     *metrics.Gauge // cumulative $, monotone (Add only)
	slotSeconds *metrics.Histogram

	// bindMu guards the per-PDU child slices: binding happens once per
	// operator at setup time, never on the slot path.
	bindMu       sync.Mutex
	predictedPDU []*metrics.Gauge
	soldPDU      []*metrics.Gauge
}

// NewMetrics registers the operator families on r and returns the handle
// set. Registration is idempotent per registry.
func NewMetrics(r *metrics.Registry) *Metrics {
	slots := r.CounterVec("spotdc_operator_slots_total",
		"Market slots by outcome: cleared, degraded (fell back to the zero-price no-grant default), breaker_open (skipped while the circuit breaker cools down).",
		"status")
	return &Metrics{
		slotsCleared:  slots.With(slotStatusCleared),
		slotsDegraded: slots.With(slotStatusDegraded),
		slotsBreaker:  slots.With(slotStatusBreakerOpen),
		emergencies: r.Counter("spotdc_operator_emergency_slots_total",
			"Slots with at least one observed capacity excursion (handled by power capping, counted here)."),
		emergenciesActed: r.Counter("spotdc_operator_emergencies_acted_total",
			"Capacity excursions the emergency responder planned reclamation for (spot users capped first, Section III-C)."),
		reclaimedWatts: r.Gauge("spotdc_operator_reclaimed_watts_total",
			"Cumulative watts of rack-budget cuts issued by the emergency responder (spot plus escalated guaranteed)."),
		involuntaryCuts: r.Counter("spotdc_operator_involuntary_cuts_total",
			"Budget resets that curtailed a rack below its guaranteed capacity (escalation only — zero means guaranteed tenants were never touched)."),
		resetFailures: r.Counter("spotdc_operator_budget_reset_failures_total",
			"Rack budget resets the SetBudget hook returned an error for; the responder carries on with the rest of the plan."),
		timeToSafe: r.Histogram("spotdc_operator_emergency_recovery_slots",
			"Slots from the start of an element's spot-sale suspension until readings stayed healthy and budgets were restored.",
			metrics.ExpBuckets(1, 2, 10)),
		predictedVec: r.GaugeVec("spotdc_operator_spot_predicted_watts",
			"Predicted available spot capacity entering the clearing, by level (ups, pdu0, pdu1, ...).",
			"level"),
		soldVec: r.GaugeVec("spotdc_operator_spot_sold_watts",
			"Spot capacity actually sold in the most recent cleared slot, by level.",
			"level"),
		margin: r.Gauge("spotdc_operator_underprediction_margin_watts",
			"Spot capacity withheld by the conservative under-prediction factor (Fig. 17): measured minus offered, at the UPS."),
		breakerOpen: r.Gauge("spotdc_operator_breaker_open",
			"1 while the market loop's circuit breaker is open (slots degrade without touching the operator), else 0."),
		revenue: r.Gauge("spotdc_operator_spot_revenue_dollars",
			"Cumulative spot revenue billed across all cleared slots."),
		slotSeconds: r.Histogram("spotdc_operator_slot_seconds",
			"Wall time of one full operator slot: prediction, clearing, feasibility verification, billing.",
			metrics.ExpBuckets(1e-5, 4, 12)),
	}
}

// bind pre-resolves the per-PDU gauge children for a topology with nPDU
// PDUs (label values ups, pdu0, pdu1, ...). Idempotent and grow-only, so
// operators of different sizes can share one Metrics.
func (om *Metrics) bind(nPDU int) {
	om.bindMu.Lock()
	defer om.bindMu.Unlock()
	if om.predictedUPS == nil {
		om.predictedUPS = om.predictedVec.With("ups")
		om.soldUPS = om.soldVec.With("ups")
	}
	for i := len(om.predictedPDU); i < nPDU; i++ {
		lv := fmt.Sprintf("pdu%d", i)
		om.predictedPDU = append(om.predictedPDU, om.predictedVec.With(lv))
		om.soldPDU = append(om.soldPDU, om.soldVec.With(lv))
	}
}

// observeSlot records one successfully cleared slot. soldByPDU is the
// operator's scratch accumulation of granted watts per PDU; underFactor is
// the prediction's under-prediction factor, from which the withheld margin
// is reconstructed (offered = measured × (1−f), so withheld =
// offered × f/(1−f)).
func (om *Metrics) observeSlot(spot power.Spot, soldByPDU []float64, soldTotal, slotRevenue, underFactor float64, dur time.Duration) {
	om.slotsCleared.Inc()
	om.slotSeconds.Observe(dur.Seconds())
	om.predictedUPS.Set(spot.UPSWatts)
	om.soldUPS.Set(soldTotal)
	for i := range spot.PDUWatts {
		if i >= len(om.predictedPDU) {
			break
		}
		om.predictedPDU[i].Set(spot.PDUWatts[i])
		om.soldPDU[i].Set(soldByPDU[i])
	}
	if underFactor > 0 && underFactor < 1 {
		om.margin.Set(spot.UPSWatts * underFactor / (1 - underFactor))
	} else {
		om.margin.Set(0)
	}
	om.revenue.Add(slotRevenue)
}

// observeReclaim records one planned reclamation.
func (om *Metrics) observeReclaim(plan ReclaimPlan) {
	om.emergenciesActed.Inc()
	om.reclaimedWatts.Add(plan.SpotReclaimed + plan.GuaranteedReclaimed)
	for _, t := range plan.Targets {
		if t.GuaranteedCut > 0 {
			om.involuntaryCuts.Inc()
		}
	}
}

// observeRecovery records a completed suspension's duration in slots.
func (om *Metrics) observeRecovery(slots float64) {
	om.timeToSafe.Observe(slots)
}

// ObserveDegradedSlot records a slot that fell back to the zero-price
// no-grant default (called by the market loop on clearing failure).
func (om *Metrics) ObserveDegradedSlot() {
	if om == nil {
		return
	}
	om.slotsDegraded.Inc()
}

// ObserveBreakerOpenSlot records a slot skipped while the circuit breaker
// was open.
func (om *Metrics) ObserveBreakerOpenSlot() {
	if om == nil {
		return
	}
	om.slotsBreaker.Inc()
}

// SetBreakerOpen mirrors the market loop's circuit-breaker state.
func (om *Metrics) SetBreakerOpen(open bool) {
	if om == nil {
		return
	}
	if open {
		om.breakerOpen.Set(1)
	} else {
		om.breakerOpen.Set(0)
	}
}
