// Package operator implements the data-center operator's side of SpotDC
// (Algorithm 1): per-slot spot-capacity prediction from rack-level power
// monitoring, market execution, rack-budget resets, billing, and the
// profit accounting the paper's evaluation reports (baseline guaranteed
// revenue, infrastructure capex amortization, the US$0.4/W rack
// over-provisioning capex, and spot revenue).
package operator

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/stats"
)

// ErrReading reports a rack-power snapshot the operator refuses to clear
// on: prediction from corrupt telemetry could oversell spot capacity, so
// the slot degrades to the no-spot default instead (Section III-C).
var ErrReading = errors.New("operator: invalid power reading")

// ErrUnreconciled reports books that do not add up: the tenants' payments
// plus unattributed revenue differ from cumulative spot revenue.
var ErrUnreconciled = errors.New("operator: accounts do not reconcile")

// ErrPricing reports an invalid pricing configuration.
var ErrPricing = errors.New("operator: invalid pricing")

// HoursPerMonth is the average month length used to amortize monthly rates.
const HoursPerMonth = 730.0

// Pricing carries the monetary parameters of the evaluation (Sections II
// and V-B).
type Pricing struct {
	// GuaranteedPerKWMonth is the guaranteed-capacity lease rate in
	// $/kW/month (US$120–250 in the paper; the amortized form anchors
	// tenants' maximum bids at ≈$0.2/kW·h).
	GuaranteedPerKWMonth float64
	// EnergyPerKWh is the metered energy price tenants pay ($/kWh).
	EnergyPerKWh float64
	// InfraCapexPerWatt is the UPS/PDU/cooling capital expense (US$10–25/W;
	// the paper's calculations use the midpoint).
	InfraCapexPerWatt float64
	// InfraLifetimeYears amortizes the infrastructure capex.
	InfraLifetimeYears float64
	// RackCapexPerWatt is the cheap rack-level over-provisioning expense
	// supporting spot headroom (US$0.4/W in the paper's calculation).
	RackCapexPerWatt float64
	// RackLifetimeYears amortizes the rack capex (15 years in the paper).
	RackLifetimeYears float64
}

// DefaultPricing returns the paper's evaluation parameters.
func DefaultPricing() Pricing {
	return Pricing{
		GuaranteedPerKWMonth: 120,
		EnergyPerKWh:         0.10,
		InfraCapexPerWatt:    20.5,
		InfraLifetimeYears:   15,
		RackCapexPerWatt:     0.4,
		RackLifetimeYears:    15,
	}
}

// Validate checks the configuration.
func (p Pricing) Validate() error {
	switch {
	case p.GuaranteedPerKWMonth <= 0:
		return fmt.Errorf("%w: guaranteed rate %v", ErrPricing, p.GuaranteedPerKWMonth)
	case p.EnergyPerKWh < 0:
		return fmt.Errorf("%w: energy price %v", ErrPricing, p.EnergyPerKWh)
	case p.InfraCapexPerWatt < 0 || p.RackCapexPerWatt < 0:
		return fmt.Errorf("%w: negative capex", ErrPricing)
	case p.InfraLifetimeYears <= 0 || p.RackLifetimeYears <= 0:
		return fmt.Errorf("%w: non-positive lifetime", ErrPricing)
	}
	return nil
}

// GuaranteedPerKWh is the amortized guaranteed-capacity rate in $/kW·h,
// the natural price anchor for spot bids (≈0.16–0.34 for the paper's
// $120–250/kW/month range).
func (p Pricing) GuaranteedPerKWh() float64 {
	return p.GuaranteedPerKWMonth / HoursPerMonth
}

// GuaranteedRevenueRate returns the operator's revenue rate ($/h) from
// leasedWatts of guaranteed capacity.
func (p Pricing) GuaranteedRevenueRate(leasedWatts float64) float64 {
	return leasedWatts / 1000 * p.GuaranteedPerKWh()
}

// InfraAmortRate returns the $/h amortization of the shared power
// infrastructure sized at capacityWatts.
func (p Pricing) InfraAmortRate(capacityWatts float64) float64 {
	return capacityWatts * p.InfraCapexPerWatt / (p.InfraLifetimeYears * 365 * 24)
}

// RackAmortRate returns the $/h amortization of rack-level
// over-provisioning totaling headroomWatts — the only extra expense SpotDC
// adds, which the paper shows is negligible.
func (p Pricing) RackAmortRate(headroomWatts float64) float64 {
	return headroomWatts * p.RackCapexPerWatt / (p.RackLifetimeYears * 365 * 24)
}

// BaselineProfitRate is the PowerCapped operator profit rate in $/h:
// guaranteed revenue minus infrastructure amortization. Spot revenue is
// reported as an increase over this baseline (the paper's +9.7%).
func (p Pricing) BaselineProfitRate(leasedWatts, infraCapacityWatts float64) float64 {
	return p.GuaranteedRevenueRate(leasedWatts) - p.InfraAmortRate(infraCapacityWatts)
}

// Operator runs the SpotDC control loop for one data center.
type Operator struct {
	topo    *power.Topology
	market  *core.Market
	pricing Pricing
	predict power.PredictOptions

	// Money and energy ledgers use compensated (Neumaier) accumulators:
	// a long horizon folds millions of small per-slot terms into a large
	// cumulative total, where naive += provably drops sub-ulp payments
	// (see stats.Neumaier and TestNeumaierBeatsNaiveAt15000Racks).
	spotRevenue    stats.Neumaier // cumulative $
	spotEnergyKWh  stats.Neumaier // spot capacity actually sold × time
	slots          int
	payments       map[string]*stats.Neumaier // per-tenant cumulative $
	unattributed   stats.Neumaier             // $ granted to allocations with no tenant name
	lastSpot       power.Spot
	emergencySlots int

	// Per-slot scratch, reused across RunSlot/MaxPerfSlot calls so the
	// steady-state slot loop allocates nothing here: rackBuf collects the
	// bidding racks, spotUsers the prediction's spot-user set, pduSoldBuf
	// the per-PDU sold-watts accumulation for instrumentation.
	rackBuf    []int
	spotUsers  map[int]bool
	pduSoldBuf []float64
	// slotPayments holds the last cleared slot's settlement, one row per
	// tenant in order of first grant (slotRow maps a tenant to its row);
	// it and commitResponder back the SlotCommit that LastSlotCommit lends
	// out (state.go).
	slotPayments    []PaymentDelta
	slotRow         map[string]int
	commitResponder ResponderCheckpoint

	// responder is non-nil only when Config.Emergency enables the
	// emergency response loop (emergency.go); nil keeps every slot path
	// bit-identical to the count-only behavior.
	responder *responderState

	met *Metrics

	// tracer and traceParent carry slot tracing (DESIGN §4i): the market
	// loop parks the slot's root span here around RunSlot, under which
	// the predict/clear/audit stage spans open. Both nil with tracing off.
	tracer      *otrace.Tracer
	traceParent *otrace.Span
}

// Config assembles an Operator.
type Config struct {
	// Topology describes the power hierarchy.
	Topology *power.Topology
	// MarketOptions tunes the clearing-price search.
	MarketOptions core.Options
	// Pricing carries the monetary parameters (DefaultPricing if zero).
	Pricing Pricing
	// Predict tunes spot-capacity prediction (e.g. the Fig. 17
	// under-prediction factor).
	Predict power.PredictOptions
	// Metrics, if non-nil, receives per-slot instrumentation (slot
	// outcomes, predicted vs. sold spot per level, margins, revenue). The
	// operator binds its per-PDU gauge children at construction time, so
	// the slot path stays allocation-free. The market core's own
	// instrumentation is configured separately via MarketOptions.Metrics.
	Metrics *Metrics
	// Emergency, if non-nil, enables the emergency responder: on a
	// capacity excursion ObserveEmergencies plans spot reclamation, issues
	// budget resets, and suspends spot sales at the affected element until
	// readings recover (Section III-C, Fig. 6). Nil keeps the historical
	// count-only behavior, bit-identically.
	Emergency *ResponderConfig
	// Tracer, if non-nil, opens predict and audit stage spans inside
	// RunSlot under the parent set by SetTraceParent, and is handed to
	// the market core for its clear span (unless MarketOptions.Trace is
	// already set). Nil is free.
	Tracer *otrace.Tracer
}

// New builds an Operator, deriving the market's rack constraints from the
// topology (headroom P_r^R per rack, PDU membership).
func New(cfg Config) (*Operator, error) {
	if cfg.Topology == nil {
		return nil, errors.New("operator: nil topology")
	}
	pr := cfg.Pricing
	if pr == (Pricing{}) {
		pr = DefaultPricing()
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	cons := core.Constraints{
		RackHeadroom: make([]float64, len(topo.Racks)),
		RackPDU:      make([]int, len(topo.Racks)),
		PDUSpot:      make([]float64, len(topo.PDUs)),
	}
	for i, r := range topo.Racks {
		cons.RackHeadroom[i] = r.SpotHeadroom
		cons.RackPDU[i] = r.PDU
	}
	if cfg.Tracer != nil && cfg.MarketOptions.Trace == nil {
		cfg.MarketOptions.Trace = cfg.Tracer
	}
	mkt, err := core.NewMarket(cons, cfg.MarketOptions)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.bind(len(topo.PDUs))
	}
	var responder *responderState
	if cfg.Emergency != nil {
		if err := cfg.Emergency.validate(); err != nil {
			return nil, err
		}
		responder = newResponderState(*cfg.Emergency, topo)
	}
	return &Operator{
		topo:       topo,
		market:     mkt,
		pricing:    pr,
		predict:    cfg.Predict,
		payments:   make(map[string]*stats.Neumaier),
		pduSoldBuf: make([]float64, len(topo.PDUs)),
		responder:  responder,
		met:        cfg.Metrics,
		tracer:     cfg.Tracer,
	}, nil
}

// SetTraceParent parks the current slot's root span for RunSlot's stage
// spans (predict/clear/audit) to parent under, and forwards it to the
// market core for its clear span. The market loop calls it around each
// RunSlot; nil clears it. Nil-safe with tracing off.
func (op *Operator) SetTraceParent(sp *otrace.Span) {
	op.traceParent = sp
	op.market.SetTraceParent(sp)
}

// Metrics returns the operator's instrumentation handle set (nil when the
// operator runs uninstrumented). The market-loop layer uses it to report
// slot degradation and circuit-breaker transitions.
func (op *Operator) Metrics() *Metrics { return op.met }

// Pricing returns the operator's pricing parameters.
func (op *Operator) Pricing() Pricing { return op.pricing }

// Topology returns the operator's power topology.
func (op *Operator) Topology() *power.Topology { return op.topo }

// PredictSpot runs Section III-C's prediction for the next slot: the
// current reading provides reference power, racks appearing in bids are
// referenced at their guaranteed capacity, and the conservative
// under-prediction factor is applied.
func (op *Operator) PredictSpot(reading power.Reading, biddingRacks []int) (power.Spot, error) {
	opts := op.predict
	if len(biddingRacks) > 0 {
		// Reuse the spot-user set across slots (PredictSpot only reads it
		// during the call).
		if op.spotUsers == nil {
			op.spotUsers = make(map[int]bool, len(biddingRacks))
		} else {
			for k := range op.spotUsers {
				delete(op.spotUsers, k)
			}
		}
		for _, r := range biddingRacks {
			op.spotUsers[r] = true
		}
		opts.SpotUsers = op.spotUsers
	}
	return op.topo.PredictSpot(reading, opts)
}

// SlotOutcome reports one slot of market operation.
type SlotOutcome struct {
	// Spot is the predicted available spot capacity used for clearing.
	Spot power.Spot
	// Result is the market clearing outcome.
	Result core.Result
	// RevenueThisSlot is the $ billed for the slot.
	RevenueThisSlot float64
	// ClearDuration is the wall time spent inside market clearing alone —
	// not prediction, feasibility verification, or billing — which is
	// what the paper's Fig. 7(b) scaling numbers measure.
	ClearDuration time.Duration
}

// ValidateReading rejects power snapshots the operator must not clear on:
// NaN, infinite, or negative rack or PDU watts (corrupt telemetry). The
// caller degrades the slot to the no-spot default.
func ValidateReading(reading power.Reading) error {
	check := func(kind string, ws []float64) error {
		for i, w := range ws {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("%w: %s %d watts %v", ErrReading, kind, i, w)
			}
		}
		return nil
	}
	if err := check("rack", reading.RackWatts); err != nil {
		return err
	}
	return check("other-PDU", reading.OtherPDUWatts)
}

// VerifyFeasible re-checks an allocation against the market's capacity
// constraints (Eqns. 2–4) — the reliability invariant exposed so external
// harnesses (e.g. the networked fault tests) can assert it independently.
func (op *Operator) VerifyFeasible(allocs []core.Allocation) error {
	return op.market.VerifyFeasible(allocs)
}

// RunSlot executes one Algorithm 1 iteration: predict spot capacity from
// the reading, clear the market over the bids, verify feasibility, and
// bill tenants for slotHours of their granted capacity.
func (op *Operator) RunSlot(bids []core.Bid, reading power.Reading, slotHours float64) (SlotOutcome, error) {
	var slotStart time.Time
	if op.met != nil {
		slotStart = time.Now()
	}
	if slotHours <= 0 {
		return SlotOutcome{}, fmt.Errorf("operator: slotHours %v must be positive", slotHours)
	}
	// predict covers reading validation plus the Section III-C spot
	// prediction; clear (market.Clear's own span) and audit follow it.
	ps := op.tracer.StartChild("predict", op.traceParent)
	if err := ValidateReading(reading); err != nil {
		ps.SetStr("error", err.Error())
		ps.End()
		return SlotOutcome{}, err
	}
	racks := op.rackBuf[:0]
	for _, b := range bids {
		racks = append(racks, b.Rack)
	}
	op.rackBuf = racks
	spot, err := op.PredictSpot(reading, racks)
	if err != nil {
		ps.SetStr("error", err.Error())
		ps.End()
		return SlotOutcome{}, err
	}
	ps.SetFloat("ups_spot_watts", spot.UPSWatts)
	ps.End()
	if rs := op.responder; rs != nil {
		// Suspended elements sell no spot capacity until they recover
		// (Section III-C: the market pauses at an overloaded PDU). The
		// zeroed prediction is what gets journaled, so the applied
		// suspensions are recorded alongside for exact replay.
		rs.appliedPDU = rs.appliedPDU[:0]
		rs.appliedUPS = rs.suspendedUPS
		for m, suspended := range rs.suspendedPDU {
			if suspended {
				spot.PDUWatts[m] = 0
				rs.appliedPDU = append(rs.appliedPDU, m)
			}
		}
		if rs.suspendedUPS {
			spot.UPSWatts = 0
		}
	}
	if err := op.market.SetSpot(spot.PDUWatts, spot.UPSWatts); err != nil {
		return SlotOutcome{}, err
	}
	clearStart := time.Now()
	res, err := op.market.Clear(bids)
	clearDur := time.Since(clearStart)
	if err != nil {
		return SlotOutcome{}, err
	}
	// audit covers the feasibility re-verification and the slot's billing
	// fold — the post-clear settlement work.
	as := op.tracer.StartChild("audit", op.traceParent)
	if err := op.market.VerifyFeasible(res.Allocations); err != nil {
		// A reliability invariant, not an expected runtime condition: spot
		// allocation must never endanger the infrastructure.
		as.SetStr("error", err.Error())
		as.End()
		return SlotOutcome{}, fmt.Errorf("operator: clearing produced infeasible allocation: %w", err)
	}
	slotRevenue := res.RevenueRate * slotHours
	op.spotRevenue.Add(slotRevenue)
	op.spotEnergyKWh.Add(res.TotalWatts / 1000 * slotHours)
	op.slots++
	op.lastSpot = spot
	if rs := op.responder; rs != nil {
		// Remember the slot's granted spot per rack: PlanReclaim cuts spot
		// users proportionally to these weights.
		for i := range rs.lastGrants {
			rs.lastGrants[i] = 0
		}
		for _, a := range res.Allocations {
			if a.Watts > 0 && a.Rack >= 0 && a.Rack < len(rs.lastGrants) {
				rs.lastGrants[a.Rack] += a.Watts
			}
		}
	}
	op.settle(res, slotHours)
	as.SetFloat("revenue", slotRevenue)
	as.End()
	if op.met != nil {
		for i := range op.pduSoldBuf {
			op.pduSoldBuf[i] = 0
		}
		for _, a := range res.Allocations {
			op.pduSoldBuf[op.topo.Racks[a.Rack].PDU] += a.Watts
		}
		op.met.observeSlot(spot, op.pduSoldBuf, res.TotalWatts, slotRevenue,
			op.predict.UnderPredictionFactor, time.Since(slotStart))
	}
	return SlotOutcome{Spot: spot, Result: res, RevenueThisSlot: slotRevenue, ClearDuration: clearDur}, nil
}

// settle bills the slot's grants at the clearing price: each tenant's
// price × grant × slotHours summed into one row (anonymous grants into the
// unattributed row, tenant ""), then each row folded into its account with
// one Add. The rows stay in op.slotPayments for LastSlotCommit, so the WAL
// replays exactly the Adds made here.
func (op *Operator) settle(res core.Result, slotHours float64) {
	if op.slotRow == nil {
		op.slotRow = make(map[string]int)
	}
	clear(op.slotRow)
	rows := op.slotPayments[:0]
	for _, a := range res.Allocations {
		if a.Watts <= 0 {
			continue
		}
		// A tenant's racks are usually adjacent in allocation order, so the
		// previous row is checked before the map.
		i := len(rows) - 1
		if i < 0 || rows[i].Tenant != a.Tenant {
			var ok bool
			if i, ok = op.slotRow[a.Tenant]; !ok {
				i = len(rows)
				op.slotRow[a.Tenant] = i
				rows = append(rows, PaymentDelta{Tenant: a.Tenant})
			}
		}
		rows[i].Amount += res.Price * a.Watts / 1000 * slotHours
	}
	op.slotPayments = rows
	for _, p := range rows {
		op.book(p)
	}
}

// book folds one payment row into its account. Grants to anonymous bids
// still earn revenue; booking them under the unattributed account keeps
// the per-tenant books reconcilable against SpotRevenue.
func (op *Operator) book(p PaymentDelta) {
	if p.Tenant == "" {
		op.unattributed.Add(p.Amount)
		return
	}
	acc := op.payments[p.Tenant]
	if acc == nil {
		acc = &stats.Neumaier{}
		op.payments[p.Tenant] = acc
	}
	acc.Add(p.Amount)
}

// MaxPerfSlot runs the MaxPerf baseline for one slot under the same
// predicted spot capacity (no payments).
func (op *Operator) MaxPerfSlot(reqs []core.MaxPerfRequest, reading power.Reading) ([]core.Allocation, power.Spot, error) {
	racks := op.rackBuf[:0]
	for _, r := range reqs {
		racks = append(racks, r.Rack)
	}
	op.rackBuf = racks
	spot, err := op.PredictSpot(reading, racks)
	if err != nil {
		return nil, power.Spot{}, err
	}
	cons := op.market.Constraints()
	cons.PDUSpot = spot.PDUWatts
	cons.UPSSpot = spot.UPSWatts
	allocs, err := core.MaxPerf(cons, reqs, core.MaxPerfOptions{QuantumWatts: 2})
	if err != nil {
		return nil, power.Spot{}, err
	}
	op.slots++
	op.lastSpot = spot
	return allocs, spot, nil
}

// ObserveEmergencies records capacity excursions for the slot's realized
// reading. Without Config.Emergency it only counts them (capping is left
// to out-of-band mechanisms, as the paper assumes); with the responder
// enabled it additionally plans reclamation, pushes budget resets, and
// manages spot-sale suspension/recovery — see emergency.go.
func (op *Operator) ObserveEmergencies(reading power.Reading, breakerTolerance float64) []power.Emergency {
	em := op.topo.CheckEmergencies(reading, breakerTolerance)
	if len(em) > 0 {
		op.emergencySlots++
		if op.met != nil {
			op.met.emergencies.Inc()
		}
	}
	if op.responder != nil {
		op.respondEmergencies(em, reading)
	}
	return em
}

// EmergencySlots returns how many observed slots had at least one
// capacity excursion.
func (op *Operator) EmergencySlots() int { return op.emergencySlots }

// SpotRevenue returns the cumulative spot revenue in $.
func (op *Operator) SpotRevenue() float64 { return op.spotRevenue.Sum() }

// SpotEnergyKWh returns the cumulative spot capacity sold in kWh.
func (op *Operator) SpotEnergyKWh() float64 { return op.spotEnergyKWh.Sum() }

// Slots returns how many slots the operator has run.
func (op *Operator) Slots() int { return op.slots }

// PaymentOf returns a tenant's cumulative spot payments in $.
func (op *Operator) PaymentOf(tenant string) float64 {
	if acc := op.payments[tenant]; acc != nil {
		return acc.Sum()
	}
	return 0
}

// MarketOptions returns the market configuration the operator clears with.
func (op *Operator) MarketOptions() core.Options { return op.market.Options() }

// PredictOptions returns the operator's prediction configuration. The
// per-slot SpotUsers scratch is omitted — it is transient state, not
// configuration.
func (op *Operator) PredictOptions() power.PredictOptions {
	p := op.predict
	p.SpotUsers = nil
	return p
}

// ReconcileAccounts cross-checks the operator's books: the sum of every
// tenant's payments plus unattributed revenue must equal cumulative spot
// revenue. The tolerance covers re-association error only — both sides use
// compensated accumulators, so a real accounting bug (a dropped or
// double-billed line item) is far outside it.
func (op *Operator) ReconcileAccounts() error {
	var paid stats.Neumaier
	for _, acc := range op.payments {
		paid.Add(acc.Sum())
	}
	paid.Add(op.unattributed.Sum())
	rev := op.spotRevenue.Sum()
	if d := math.Abs(paid.Sum() - rev); d > 1e-9*(1+math.Abs(rev)) {
		return fmt.Errorf("%w: payments %.12g $ (incl. %.12g unattributed) != spot revenue %.12g $ (Δ %g)",
			ErrUnreconciled, paid.Sum(), op.unattributed.Sum(), rev, d)
	}
	return nil
}

// ProfitReport summarizes the Fig. 12 / Fig. 18 profit comparison over a
// simulated horizon.
type ProfitReport struct {
	// Hours is the simulated duration.
	Hours float64
	// BaselineProfit is the PowerCapped profit over the horizon ($).
	BaselineProfit float64
	// SpotRevenue is the extra revenue from selling spot capacity ($).
	SpotRevenue float64
	// RackCapex is the amortized rack over-provisioning expense ($).
	RackCapex float64
	// ExtraProfitFraction is (SpotRevenue − RackCapex) / BaselineProfit —
	// the paper's headline +9.7%.
	ExtraProfitFraction float64
}

// Profit computes the report for a horizon of the given hours, using the
// topology's leased capacity and UPS capacity for the baseline.
func (op *Operator) Profit(hours float64, extraLeasedWatts float64) ProfitReport {
	leased := op.topo.TotalGuaranteed() + extraLeasedWatts
	headroom := 0.0
	for _, r := range op.topo.Racks {
		headroom += r.SpotHeadroom
	}
	base := op.pricing.BaselineProfitRate(leased, op.topo.UPSCapacity) * hours
	rackCapex := op.pricing.RackAmortRate(headroom) * hours
	rep := ProfitReport{
		Hours:          hours,
		BaselineProfit: base,
		SpotRevenue:    op.spotRevenue.Sum(),
		RackCapex:      rackCapex,
	}
	if base > 0 {
		rep.ExtraProfitFraction = (op.spotRevenue.Sum() - rackCapex) / base
	}
	return rep
}
