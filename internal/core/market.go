package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spotdc/internal/otrace"
)

// ErrConstraints reports inconsistent market constraints.
var ErrConstraints = errors.New("core: invalid constraints")

// Constraints carries the multi-level capacity limits of Eqns. (2)–(4) for
// one clearing round. Rack arrays are indexed by rack index; PDUSpot by PDU
// index.
type Constraints struct {
	// RackHeadroom is P_r^R: the maximum spot capacity each rack's physical
	// PDU supports (Eqn. 2).
	RackHeadroom []float64
	// RackPDU maps each rack to its feeding PDU.
	RackPDU []int
	// PDUSpot is P_m(t): the available spot capacity at each PDU (Eqn. 3).
	PDUSpot []float64
	// UPSSpot is P_o(t): the available spot capacity at the UPS (Eqn. 4).
	UPSSpot float64
}

// Validate checks internal consistency.
func (c Constraints) Validate() error {
	if len(c.RackHeadroom) != len(c.RackPDU) {
		return fmt.Errorf("%w: %d headrooms but %d rack-PDU entries",
			ErrConstraints, len(c.RackHeadroom), len(c.RackPDU))
	}
	for r, m := range c.RackPDU {
		if m < 0 || m >= len(c.PDUSpot) {
			return fmt.Errorf("%w: rack %d references PDU %d of %d", ErrConstraints, r, m, len(c.PDUSpot))
		}
		if c.RackHeadroom[r] < 0 {
			return fmt.Errorf("%w: rack %d headroom %v negative", ErrConstraints, r, c.RackHeadroom[r])
		}
	}
	for m, p := range c.PDUSpot {
		if p < 0 {
			return fmt.Errorf("%w: PDU %d spot %v negative", ErrConstraints, m, p)
		}
	}
	if c.UPSSpot < 0 {
		return fmt.Errorf("%w: UPS spot %v negative", ErrConstraints, c.UPSSpot)
	}
	return nil
}

// Algorithm selects the clearing engine.
type Algorithm int

const (
	// AlgorithmAuto picks the default engine: the exact breakpoint-driven
	// search when every bid's demand function exposes its piece-wise linear
	// structure (Breakpointer), otherwise the grid scan.
	AlgorithmAuto Algorithm = iota
	// AlgorithmScan is the paper's Section III-C "simple search over the
	// feasible price range" at PriceStep granularity. It is kept as the
	// reference oracle the exact engine is cross-validated against.
	AlgorithmScan
	// AlgorithmExact is the breakpoint-driven engine: it collects the bid
	// curves' breakpoints, maximizes the closed-form piece-wise quadratic
	// revenue analytically on each inter-breakpoint segment, and verifies
	// the leading candidate prices in parallel. O(B log B) in the number of
	// breakpoints instead of O(prices × bids). Falls back to the scan when
	// a bid's demand function does not implement Breakpointer.
	AlgorithmExact
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmAuto:
		return "auto"
	case AlgorithmScan:
		return "scan"
	case AlgorithmExact:
		return "exact"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps the flag/config spelling to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "auto":
		return AlgorithmAuto, nil
	case "scan":
		return AlgorithmScan, nil
	case "exact":
		return AlgorithmExact, nil
	default:
		return 0, fmt.Errorf("core: unknown clearing algorithm %q (want auto, scan or exact)", s)
	}
}

// Options tunes the clearing-price search.
type Options struct {
	// PriceStep is the scan granularity in $/kW·h. The paper evaluates
	// steps of 0.1 and 1 cents/kW (Fig. 7(b)). Default 0.001 $/kW·h.
	PriceStep float64
	// ReservePrice is the price floor; the operator can set it to recoup
	// metered-energy costs. Default 0.
	ReservePrice float64
	// Ration selects best-effort proportional rationing: instead of
	// requiring the uniform price to make every PDU's demand feasible
	// (which at scale lets the single most congested PDU floor the price
	// for the whole data center), allocations on an over-demanded PDU (or
	// UPS) are scaled down proportionally. Spot capacity is explicitly
	// best-effort in the paper, and the resulting allocation still
	// satisfies Eqns. (2)–(4). See DESIGN.md for this design choice.
	Ration bool
	// Algorithm selects the clearing engine; the zero value (AlgorithmAuto)
	// uses the exact breakpoint-driven engine whenever the bids permit it.
	// Installed Extras override the selection: they always clear on the
	// grid (see SetExtras).
	Algorithm Algorithm
	// Metrics, if non-nil, receives per-clearing instrumentation (duration,
	// candidate evaluations, engine, price/revenue/watts). Observation is a
	// handful of atomic updates on pre-registered handles, preserving the
	// clearing loop's allocation budgets; nil disables it entirely at the
	// cost of one branch per Clear.
	Metrics *MarketMetrics
	// Audit, if non-nil, re-verifies the settlement conservation invariants
	// after every clearing (see Auditor). The inline pass is one O(bids)
	// loop over market-owned scratch — allocation-free after warm-up, like
	// Metrics — and never fails the clearing: violations are counted on the
	// Auditor and surfaced via its OnViolation hook and Err().
	Audit *Auditor
	// Trace, if non-nil, opens one clear span per Clear call under the
	// parent set by SetTraceParent, annotated with the engine, candidate
	// evaluations, and clearing price (DESIGN §4i). Nil is free.
	Trace *otrace.Tracer
}

const defaultPriceStep = 0.001

func (o Options) step() float64 {
	if o.PriceStep <= 0 {
		return defaultPriceStep
	}
	return o.PriceStep
}

// Allocation records the spot capacity granted to one rack.
type Allocation struct {
	Rack   int
	Tenant string
	// Watts is the granted spot capacity, already clamped to the rack
	// headroom P_r^R.
	Watts float64
}

// Result is the outcome of one market clearing.
type Result struct {
	// Price is the uniform clearing price in $/kW·h.
	Price float64
	// Allocations lists the per-rack grants (one per bid, zero-watt grants
	// included so callers can observe priced-out racks).
	//
	// Ownership: the slice is backed by the Market's reusable scratch buffer
	// and is valid only until the next Clear call on the same Market.
	// Callers that retain grants across clearings must copy (the market loop
	// broadcasts and the simulator consumes grants within the slot, so the
	// steady-state clearing path allocates nothing).
	Allocations []Allocation
	// TotalWatts is the total spot capacity sold.
	TotalWatts float64
	// RevenueRate is the operator's revenue rate in $/h at this price
	// (Price × TotalWatts/1000). Multiply by the slot length in hours for
	// the per-slot payment.
	RevenueRate float64
	// Evaluations counts the full demand-curve evaluations performed (the
	// dominant cost of clearing), a proxy for clearing cost reported
	// alongside Fig. 7(b). The scan performs one per candidate grid price;
	// the exact engine performs a handful (feasibility probes plus
	// verification of the analytically chosen candidates).
	Evaluations int
	// Algorithm records which engine produced the result (never
	// AlgorithmAuto: Clear resolves to scan or exact per clearing).
	Algorithm Algorithm
}

// Market clears spot capacity for a fixed topology, reusing scratch buffers
// across slots. It is not safe for concurrent use; create one per goroutine.
type Market struct {
	cons Constraints
	opts Options
	// extras holds the optional Section III-A constraints (heat density,
	// phase balance); nil when unused.
	extras *Extras
	// scratch per-PDU accumulation buffer.
	pduLoad []float64
	// allocBuf backs Result.Allocations across clearings (see the ownership
	// note on Result.Allocations): steady-state clearing materializes into
	// this buffer instead of allocating per slot.
	allocBuf []Allocation
	// pduScale is rationedAllocations' per-PDU scale factor scratch.
	pduScale []float64
	// auditLoad is the inline auditor's per-PDU accumulation scratch.
	auditLoad []float64
	// rackLoad is the per-rack accumulation scratch of VerifyFeasible and
	// VerifyExtras (grants for the same rack count jointly).
	rackLoad []float64
	// phaseLoad is VerifyExtras' per-PDU three-phase accumulation scratch
	// (index pdu*3+phase).
	phaseLoad []float64
	// rackSeen/rackEpoch implement O(1) duplicate-rack detection in Clear's
	// validation pass without clearing a buffer per call: a rack is "seen
	// this clearing" iff rackSeen[rack] == rackEpoch.
	rackSeen  []uint32
	rackEpoch uint32
	// exact holds the reusable buffers of the breakpoint-driven engine
	// (same single-threaded contract as pduLoad; the parallel candidate
	// verification uses private per-worker buffers instead).
	exact exactScratch
	// traceParent is the span Clear's clear span parents under; set per
	// slot by SetTraceParent, nil outside an instrumented slot.
	traceParent *otrace.Span
	// sub is ClearPerPDU's reusable single-PDU market (built on first use;
	// it shares the rack arrays and owns its PDUSpot); subBids holds the
	// bids partitioned by PDU, each slice keeping its capacity across calls.
	sub     *Market
	subBids [][]Bid
}

// SetTraceParent sets the parent span for the clear spans opened by Clear
// (nil detaches). Call it from the same goroutine that calls Clear; the
// market is single-threaded by contract.
func (m *Market) SetTraceParent(sp *otrace.Span) {
	m.traceParent = sp
}

// allocs returns the market-owned allocation buffer resized to n
// (reallocating only on growth).
func (m *Market) allocs(n int) []Allocation {
	if cap(m.allocBuf) < n {
		m.allocBuf = make([]Allocation, n)
	}
	m.allocBuf = m.allocBuf[:n]
	return m.allocBuf
}

// NewMarket validates the constraints and builds a market. The constraints'
// PDUSpot and UPSSpot may be updated per slot via SetSpot.
func NewMarket(cons Constraints, opts Options) (*Market, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	cons.RackHeadroom = append([]float64(nil), cons.RackHeadroom...)
	cons.RackPDU = append([]int(nil), cons.RackPDU...)
	cons.PDUSpot = append([]float64(nil), cons.PDUSpot...)
	return &Market{
		cons:    cons,
		opts:    opts,
		pduLoad: make([]float64, len(cons.PDUSpot)),
	}, nil
}

// SetSpot updates the per-slot available spot capacity. It validates every
// value before mutating anything, so a rejected update leaves the market's
// constraints exactly as they were (no partial application).
func (m *Market) SetSpot(pduSpot []float64, upsSpot float64) error {
	if len(pduSpot) != len(m.cons.PDUSpot) {
		return fmt.Errorf("%w: %d PDU spot values for %d PDUs", ErrConstraints, len(pduSpot), len(m.cons.PDUSpot))
	}
	for i, p := range pduSpot {
		if p < 0 {
			return fmt.Errorf("%w: PDU %d spot %v negative", ErrConstraints, i, p)
		}
	}
	if upsSpot < 0 {
		return fmt.Errorf("%w: UPS spot %v negative", ErrConstraints, upsSpot)
	}
	copy(m.cons.PDUSpot, pduSpot)
	m.cons.UPSSpot = upsSpot
	return nil
}

// Options returns the market's clearing options (the Metrics and Audit
// handles come along as shared pointers; callers treat them as read-only).
func (m *Market) Options() Options { return m.opts }

// Constraints returns a copy of the current constraints.
func (m *Market) Constraints() Constraints {
	return Constraints{
		RackHeadroom: append([]float64(nil), m.cons.RackHeadroom...),
		RackPDU:      append([]int(nil), m.cons.RackPDU...),
		PDUSpot:      append([]float64(nil), m.cons.PDUSpot...),
		UPSSpot:      m.cons.UPSSpot,
	}
}

// servedInto fills pduLoad (a caller-owned buffer of len(PDUSpot)) with the
// per-PDU served demand at the given price (each rack clamped to its
// headroom) and returns the total. It touches no Market scratch state, so
// concurrent callers with distinct buffers are safe.
func (m *Market) servedInto(pduLoad []float64, bids []Bid, price float64) float64 {
	for i := range pduLoad {
		pduLoad[i] = 0
	}
	total := 0.0
	for _, b := range bids {
		d := b.Fn.Demand(price)
		if hr := m.cons.RackHeadroom[b.Rack]; d > hr {
			d = hr
		}
		if d <= 0 {
			continue
		}
		pduLoad[m.cons.RackPDU[b.Rack]] += d
		total += d
	}
	return total
}

// servedAt is servedInto over the market's shared scratch buffer
// (single-threaded callers only).
func (m *Market) servedAt(bids []Bid, price float64) float64 {
	return m.servedInto(m.pduLoad, bids, price)
}

// feasEps is the capacity-comparison tolerance in watts: loads within
// feasEps of a PDU/UPS limit still count as feasible (Eqns. 2–4 hold up to
// floating-point noise).
const feasEps = 1e-9

// revEps is the revenue-comparison tolerance in $/h, deliberately distinct
// from the watts-scale feasEps: a candidate price must beat the incumbent's
// revenue by more than revEps to replace it. Combined with evaluating
// candidates in ascending price order, this tie-breaks deterministically
// toward the lower clearing price.
const revEps = 1e-9

// rationedInto returns the total watts served at the given price under
// proportional rationing, accumulating per-PDU loads into the caller-owned
// buffer: each rack's demand is clamped to its headroom, each over-demanded
// PDU's load is scaled to its spot capacity, and the grand total is capped
// at the UPS spot.
func (m *Market) rationedInto(pduLoad []float64, bids []Bid, price float64) float64 {
	m.servedInto(pduLoad, bids, price)
	total := 0.0
	for i, load := range pduLoad {
		if load > m.cons.PDUSpot[i] {
			load = m.cons.PDUSpot[i]
		}
		total += load
	}
	if total > m.cons.UPSSpot {
		total = m.cons.UPSSpot
	}
	return total
}

// rationedAllocations materializes the per-rack grants at a price under
// proportional rationing, into the market-owned allocation buffer.
func (m *Market) rationedAllocations(bids []Bid, price float64) ([]Allocation, float64) {
	m.servedAt(bids, price)
	pduScale := f64s(m.pduScale, len(m.pduLoad))
	m.pduScale = pduScale
	total := 0.0
	for i, load := range m.pduLoad {
		pduScale[i] = 1
		if load > m.cons.PDUSpot[i] && load > 0 {
			pduScale[i] = m.cons.PDUSpot[i] / load
		}
		total += load * pduScale[i]
	}
	upsScale := 1.0
	if total > m.cons.UPSSpot && total > 0 {
		upsScale = m.cons.UPSSpot / total
		total = m.cons.UPSSpot
	}
	allocs := m.allocs(len(bids))
	for i, b := range bids {
		d := b.Fn.Demand(price)
		if hr := m.cons.RackHeadroom[b.Rack]; d > hr {
			d = hr
		}
		if d < 0 {
			d = 0
		}
		d *= pduScale[m.cons.RackPDU[b.Rack]] * upsScale
		allocs[i] = Allocation{Rack: b.Rack, Tenant: b.Tenant, Watts: d}
	}
	return allocs, total
}

// feasibleInto reports whether the served demand at price fits every PDU
// and the UPS, using the caller-owned buffer, and returns the served total.
// Because demand is non-increasing in price, feasibility is monotone:
// feasible at q implies feasible at any q' ≥ q.
func (m *Market) feasibleInto(pduLoad []float64, bids []Bid, price float64) (float64, bool) {
	total := m.servedInto(pduLoad, bids, price)
	if total > m.cons.UPSSpot+feasEps {
		return total, false
	}
	for i, load := range pduLoad {
		if load > m.cons.PDUSpot[i]+feasEps {
			return total, false
		}
	}
	return total, true
}

// feasibleAt is feasibleInto over the market's shared scratch buffer.
func (m *Market) feasibleAt(bids []Bid, price float64) bool {
	_, ok := m.feasibleInto(m.pduLoad, bids, price)
	return ok
}

// Clear runs the market: it finds the uniform price maximizing the
// operator's revenue q·ΣD_r(q) (Eqn. 1) over the prices that satisfy every
// installed constraint — Eqns. (2)–(4) and, when SetExtras installed them,
// the heat-density zones and phase balance. It is the only function that
// searches prices. The engine follows from what the market holds: installed
// Extras clear on the Section III-C grid at PriceStep granularity (their
// feasibility is not monotone in price), as do Options.Algorithm ==
// AlgorithmScan and bids that do not expose their piece-wise linear
// structure; everything else runs the exact breakpoint-driven search. Bids
// referencing out-of-range racks are rejected.
//
// The returned Result.Allocations slice is owned by the Market and valid
// only until the next Clear call; copy it to retain grants across
// clearings.
func (m *Market) Clear(bids []Bid) (Result, error) {
	met := m.opts.Metrics
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	sp := m.opts.Trace.StartChild("clear", m.traceParent)
	if err := m.validateBids(bids); err != nil {
		if met != nil {
			met.clearErrors.Inc()
		}
		if sp != nil {
			sp.SetStr("error", err.Error())
			sp.End()
		}
		return Result{}, err
	}
	res := m.search(bids)
	if met != nil {
		met.observeClear(res, time.Since(start))
	}
	if aud := m.opts.Audit; aud != nil {
		m.auditClear(aud, bids, res)
	}
	if sp != nil {
		sp.SetStr("engine", res.Algorithm.String())
		sp.SetInt("evaluations", int64(res.Evaluations))
		sp.SetFloat("price", res.Price)
		sp.End()
	}
	return res, nil
}

// search picks the engine for already-validated bids and runs it.
func (m *Market) search(bids []Bid) Result {
	if m.extras != nil || m.opts.Algorithm == AlgorithmScan || !breakpointable(bids) {
		return m.clearScan(bids)
	}
	return m.clearExact(bids)
}

// rations reports whether this clearing rations over-demanded PDUs.
// Installed Extras clear strictly even on a Ration market: proportional
// scaling would have to be re-balanced per zone and phase, which the paper
// does not define (see SetExtras).
func (m *Market) rations() bool { return m.opts.Ration && m.extras == nil }

// validateBids rejects out-of-range racks, nil demand functions, and
// duplicate racks. A rack gets exactly one demand function per slot (b_r in
// the paper); two bids on the same rack would let the per-bid headroom
// clamp in servedInto jointly exceed the rack's physical headroom (Eqn. 2).
// Duplicate detection is epoch-marked over a reusable buffer, so steady-
// state validation allocates nothing.
func (m *Market) validateBids(bids []Bid) error {
	if cap(m.rackSeen) < len(m.cons.RackHeadroom) {
		m.rackSeen = make([]uint32, len(m.cons.RackHeadroom))
	}
	seen := m.rackSeen[:len(m.cons.RackHeadroom)]
	m.rackEpoch++
	if m.rackEpoch == 0 { // uint32 wrap: stale marks could alias, reset
		for i := range seen {
			seen[i] = 0
		}
		m.rackEpoch = 1
	}
	for _, b := range bids {
		if b.Rack < 0 || b.Rack >= len(m.cons.RackHeadroom) {
			return fmt.Errorf("%w: bid references rack %d of %d", ErrConstraints, b.Rack, len(m.cons.RackHeadroom))
		}
		if b.Fn == nil {
			return fmt.Errorf("%w: bid for rack %d has nil demand function", ErrBid, b.Rack)
		}
		if seen[b.Rack] == m.rackEpoch {
			return fmt.Errorf("%w: duplicate bid for rack %d (one demand function per rack per slot)", ErrBid, b.Rack)
		}
		seen[b.Rack] = m.rackEpoch
	}
	return nil
}

// breakpointable reports whether every bid's demand function exposes its
// piece-wise linear structure, the prerequisite of exact clearing.
func breakpointable(bids []Bid) bool {
	for _, b := range bids {
		if _, ok := b.Fn.(Breakpointer); !ok {
			return false
		}
	}
	return true
}

// priceFloor returns the effective reserve price.
func (m *Market) priceFloor() float64 {
	if m.opts.ReservePrice < 0 {
		return 0
	}
	return m.opts.ReservePrice
}

// maxBidPrice returns the highest MaxPrice over the bids, floored at the
// reserve; revenue is zero above it.
func (m *Market) maxBidPrice(bids []Bid) float64 {
	hi := m.priceFloor()
	for _, b := range bids {
		if p := b.Fn.MaxPrice(); p > hi {
			hi = p
		}
	}
	return hi
}

// clearScan is the reference engine: the paper's grid scan at PriceStep
// granularity. Every candidate price is an exact grid point
// floor + i·PriceStep (integer-indexed, so thousands of iterations cannot
// drift off-grid the way a floating-point accumulator would), and the
// binary-searched feasibility boundary is snapped up to the same grid.
//
// Installed Extras make feasibility non-monotone in price (a high price can
// drop one phase's bidders entirely and unbalance the rest), so there is no
// frontier to bisect: the scan then starts at the floor and tests every
// grid price against Eqns. (2)–(4) and the extras, keeping the best one
// that passes.
func (m *Market) clearScan(bids []Bid) Result {
	floor := m.priceFloor()
	res := Result{Price: floor, Algorithm: AlgorithmScan}
	if len(bids) == 0 {
		return res
	}
	// The revenue is zero above every bid's maximum price; cap the scan.
	hi := m.maxBidPrice(bids)
	step := m.opts.step()
	ration := m.rations()

	loIdx := 0
	evals := 0
	if !ration && m.extras == nil {
		// Feasibility is monotone in price, so binary-search the lowest
		// feasible price to step resolution, then scan only feasible
		// prices.
		evals++
		if !m.feasibleAt(bids, floor) {
			// Demand is zero (hence trivially feasible) just above hi.
			searchLo, searchHi := floor, hi+step
			for searchHi-searchLo > step/4 {
				mid := (searchLo + searchHi) / 2
				evals++
				if m.feasibleAt(bids, mid) {
					searchHi = mid
				} else {
					searchLo = mid
				}
			}
			// Snap the boundary up to the scan grid: the first candidate is
			// the lowest grid price at or above the infeasible searchLo that
			// probes feasible (at most a couple of probes, since
			// searchHi − searchLo ≤ step/4).
			loIdx = int(math.Ceil((searchLo - floor) / step))
			if loIdx < 0 {
				loIdx = 0
			}
			for {
				evals++
				if m.feasibleAt(bids, floor+float64(loIdx)*step) {
					break
				}
				loIdx++
			}
		}
	}

	bestPrice, bestRevenue, bestWatts := floor, -1.0, 0.0
	for i := loIdx; ; i++ {
		q := floor + float64(i)*step
		if q > hi+step/2 {
			if bestRevenue < 0 {
				// No price in range passes (or the lowest feasible price
				// already exceeds every max price): the market idles at
				// the first grid price past the range, where demand — and
				// hence every constraint load — is zero.
				bestPrice, bestRevenue = q, 0
			}
			break
		}
		evals++
		watts, ok := m.gridWatts(bids, q, ration)
		if !ok {
			continue
		}
		rev := q * watts / 1000 // $/kW·h × kW = $/h
		if rev > bestRevenue+revEps {
			bestPrice, bestRevenue, bestWatts = q, rev, watts
		}
	}

	res.Price = bestPrice
	res.Evaluations = evals
	return m.materialize(res, bids, bestWatts, bestRevenue)
}

// gridWatts returns the watts the scan sells at grid price q and whether q
// is admissible. Without extras every scanned price is (rationing always
// fits; strict prices lie past the bisected frontier). With extras, q must
// fit Eqns. (3)–(4) and its tentative grants must pass the zone and phase
// checks of VerifyExtras.
func (m *Market) gridWatts(bids []Bid, q float64, ration bool) (float64, bool) {
	switch {
	case ration:
		return m.rationedInto(m.pduLoad, bids, q), true
	case m.extras == nil:
		return m.servedAt(bids, q), true
	}
	watts, ok := m.feasibleInto(m.pduLoad, bids, q)
	if ok {
		_, ok = m.checkExtras(m.strictAllocations(bids, q))
	}
	return watts, ok
}

// strictAllocations materializes the un-rationed per-rack grants at a price
// (demand clamped to rack headroom) into the market-owned buffer.
func (m *Market) strictAllocations(bids []Bid, price float64) []Allocation {
	allocs := m.allocs(len(bids))
	for i, b := range bids {
		d := b.Fn.Demand(price)
		if hr := m.cons.RackHeadroom[b.Rack]; d > hr {
			d = hr
		}
		allocs[i] = Allocation{Rack: b.Rack, Tenant: b.Tenant, Watts: d}
	}
	return allocs
}

// materialize fills the allocations of a result whose Price is decided.
func (m *Market) materialize(res Result, bids []Bid, watts, revenue float64) Result {
	if m.rations() {
		res.Allocations, res.TotalWatts = m.rationedAllocations(bids, res.Price)
		res.RevenueRate = res.Price * res.TotalWatts / 1000
		return res
	}
	res.TotalWatts = watts
	res.RevenueRate = revenue
	res.Allocations = m.strictAllocations(bids, res.Price)
	return res
}

// VerifyFeasible confirms that an allocation satisfies Eqns. (2)–(4); the
// simulator asserts this invariant every slot. Grants are accumulated per
// rack before the headroom comparison: several allocations for the same
// rack (legal for callers outside Clear, e.g. MaxPerf) must jointly fit its
// physical headroom, not just individually.
func (m *Market) VerifyFeasible(allocs []Allocation) error {
	for i := range m.pduLoad {
		m.pduLoad[i] = 0
	}
	rackLoad := f64s(m.rackLoad, len(m.cons.RackHeadroom))
	m.rackLoad = rackLoad
	for i := range rackLoad {
		rackLoad[i] = 0
	}
	total := 0.0
	for _, a := range allocs {
		if a.Rack < 0 || a.Rack >= len(m.cons.RackHeadroom) {
			return fmt.Errorf("%w: allocation for rack %d of %d", ErrConstraints, a.Rack, len(m.cons.RackHeadroom))
		}
		if a.Watts < 0 {
			return fmt.Errorf("core: rack %d allocated negative power %v", a.Rack, a.Watts)
		}
		rackLoad[a.Rack] += a.Watts
		if rackLoad[a.Rack] > m.cons.RackHeadroom[a.Rack]+feasEps {
			return fmt.Errorf("core: rack %d allocated %v W beyond headroom %v W (Eqn. 2)",
				a.Rack, rackLoad[a.Rack], m.cons.RackHeadroom[a.Rack])
		}
		m.pduLoad[m.cons.RackPDU[a.Rack]] += a.Watts
		total += a.Watts
	}
	for i, load := range m.pduLoad {
		if load > m.cons.PDUSpot[i]+feasEps {
			return fmt.Errorf("core: PDU %d allocated %v W beyond spot %v W (Eqn. 3)", i, load, m.cons.PDUSpot[i])
		}
	}
	if total > m.cons.UPSSpot+feasEps {
		return fmt.Errorf("core: UPS allocated %v W beyond spot %v W (Eqn. 4)", total, m.cons.UPSSpot)
	}
	return nil
}

// ClearPerPDU is the pricing ablation discussed in DESIGN.md: each PDU
// clears independently at its own price (still respecting rack headrooms
// and its own spot capacity), and the UPS constraint is then enforced by
// raising the cheapest PDU's price step-by-step until the total fits. The
// paper's single uniform price is simpler and is what SpotDC deploys; this
// exists to quantify the gap.
//
// Each PDU's result is what Clear returns for that PDU's bids on a market
// whose only spot capacity is that PDU's: the same price search, run on one
// reused single-PDU market. The ablation covers Eqns. (2)–(4) only —
// installed Extras are not consulted, and the per-PDU clearings are audited
// (Options.Audit) but not observed by Options.Metrics or traced. Unlike
// Clear, the returned results own their Allocations.
func (m *Market) ClearPerPDU(bids []Bid) ([]Result, error) {
	if err := m.validateBids(bids); err != nil {
		return nil, err
	}
	nPDU := len(m.cons.PDUSpot)
	if m.sub == nil {
		cons := m.cons
		cons.PDUSpot = make([]float64, nPDU)
		m.sub = &Market{cons: cons, opts: m.opts, pduLoad: make([]float64, nPDU)}
		m.subBids = make([][]Bid, nPDU)
	}
	sub, byPDU := m.sub, m.subBids
	for p := range byPDU {
		byPDU[p] = byPDU[p][:0]
	}
	for _, b := range bids {
		p := m.cons.RackPDU[b.Rack]
		byPDU[p] = append(byPDU[p], b)
	}

	results := make([]Result, nPDU)
	grants := make([]Allocation, 0, len(bids)) // one backing array for every result
	for p, pb := range byPDU {
		spot := m.cons.PDUSpot[p]
		sub.cons.PDUSpot[p], sub.cons.UPSSpot = spot, spot
		r := sub.search(pb)
		if aud := m.opts.Audit; aud != nil {
			sub.auditClear(aud, pb, r)
		}
		sub.cons.PDUSpot[p] = 0
		grants = append(grants, r.Allocations...)
		r.Allocations = grants[len(grants)-len(pb) : len(grants) : len(grants)]
		results[p] = r
	}
	// Enforce the UPS constraint by pricing up the cheapest PDU.
	step := m.opts.step()
	for {
		total := 0.0
		for _, r := range results {
			total += r.TotalWatts
		}
		if total <= m.cons.UPSSpot+feasEps {
			break
		}
		cheapest := -1
		for pdu, r := range results {
			if r.TotalWatts > 0 && (cheapest < 0 || r.Price < results[cheapest].Price) {
				cheapest = pdu
			}
		}
		if cheapest < 0 {
			break
		}
		m.repriceAt(&results[cheapest], byPDU[cheapest], results[cheapest].Price+step)
	}
	return results, nil
}

// repriceAt recomputes a per-PDU result in place at a forced price.
func (m *Market) repriceAt(res *Result, bids []Bid, price float64) {
	res.Price, res.TotalWatts = price, 0
	for i, b := range bids {
		d := b.Fn.Demand(price)
		if hr := m.cons.RackHeadroom[b.Rack]; d > hr {
			d = hr
		}
		res.Allocations[i].Watts = d
		res.TotalWatts += d
	}
	res.RevenueRate = price * res.TotalWatts / 1000
}
