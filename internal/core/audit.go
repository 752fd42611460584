package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Auditor is the market core's inline conservation checker: attached via
// Options.Audit, it re-verifies the paper's settlement invariants after
// every clearing —
//
//   - one grant per bid, in bid order, on the bid's rack;
//   - every grant within [0, min(rack headroom, bid's MaxDemand)] (the
//     [qmin,qmax] envelope of Eqn. 5 materialized in watts);
//   - no positive grant priced above the bid's maximum acceptable price;
//   - Σ grants ≤ predicted spot at every PDU and at the UPS (Eqns. 2–4);
//   - Σ grants == Result.TotalWatts and
//     Result.RevenueRate == Price × TotalWatts / 1000, within auditEps.
//
// Like MarketMetrics it is a handle, not a map: the per-clearing pass is a
// single loop over the bids using market-owned scratch, with zero
// steady-state allocations, so it preserves the clearing alloc budgets
// (0 scan / ≤32 exact). A nil Auditor disables auditing at the cost of one
// branch per Clear. One Auditor may be shared by many markets (e.g. a
// parallel scenario fan-out): the counters are atomic and the scratch
// belongs to each Market, not the Auditor.
//
// Deeper checks that need extra demand-curve evaluations (exact-vs-scan
// engine agreement, Demand(price) consistency of every grant) run offline
// in internal/audit over a schema-v2 slot journal, keeping the inline pass
// within its ≤5% overhead budget.
type Auditor struct {
	// OnViolation, if non-nil, observes every violation as it is found (on
	// the clearing goroutine). Leave nil to just count and inspect Err()
	// afterwards. Note the violation is reported on an otherwise successful
	// Result: Clear does not fail the slot, callers decide.
	OnViolation func(error)

	violations atomic.Int64
	mu         sync.Mutex
	firstErr   error
}

// Violations returns how many invariant violations have been recorded.
func (a *Auditor) Violations() int64 {
	if a == nil {
		return 0
	}
	return a.violations.Load()
}

// Err returns the first recorded violation (nil when the books balance).
func (a *Auditor) Err() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.firstErr
}

// report records one violation. Only the violation path allocates (the
// error); clean clearings never reach it.
func (a *Auditor) report(err error) {
	a.violations.Add(1)
	a.mu.Lock()
	if a.firstErr == nil {
		a.firstErr = err
	}
	a.mu.Unlock()
	if a.OnViolation != nil {
		a.OnViolation(err)
	}
}

// auditEps returns the comparison tolerance for a sum of magnitude scale:
// the absolute feasEps floor plus a relative term covering re-association
// error when the auditor re-sums thousands of grants in a different order
// than the engine did (documented in DESIGN.md §4e).
func auditEps(scale float64) float64 {
	return feasEps + 1e-12*math.Abs(scale)
}

// auditClear runs the inline invariant pass over a finished clearing. It
// reuses the market's audit scratch buffer (grown once, then steady-state
// allocation-free) and performs only O(1) work per bid.
func (m *Market) auditClear(aud *Auditor, bids []Bid, res Result) {
	if len(res.Allocations) != len(bids) {
		aud.report(fmt.Errorf("core: audit: %d allocations for %d bids", len(res.Allocations), len(bids)))
		return
	}
	load := f64s(m.auditLoad, len(m.cons.PDUSpot))
	m.auditLoad = load
	for i := range load {
		load[i] = 0
	}
	total := 0.0
	for i, b := range bids {
		a := res.Allocations[i]
		if a.Rack != b.Rack {
			aud.report(fmt.Errorf("core: audit: allocation %d on rack %d, bid on rack %d", i, a.Rack, b.Rack))
			continue
		}
		if a.Watts < 0 {
			aud.report(fmt.Errorf("core: audit: rack %d granted negative power %v W", a.Rack, a.Watts))
			continue
		}
		if hr := m.cons.RackHeadroom[a.Rack]; a.Watts > hr+feasEps {
			aud.report(fmt.Errorf("core: audit: rack %d granted %v W beyond headroom %v W (Eqn. 2)", a.Rack, a.Watts, hr))
		}
		// The envelope reads are per-bid hot-path work: LinearBid (the only
		// demand form the wire protocol carries) gets a concrete fast path
		// so the common case pays field loads, not two virtual calls.
		var dm, mp float64
		if lb, ok := b.Fn.(LinearBid); ok {
			dm, mp = lb.DMax, lb.QMax
		} else {
			dm, mp = b.Fn.MaxDemand(), b.Fn.MaxPrice()
		}
		if a.Watts > dm+feasEps {
			aud.report(fmt.Errorf("core: audit: rack %d granted %v W beyond its bid's max demand %v W", a.Rack, a.Watts, dm))
		}
		if a.Watts > feasEps && res.Price > mp+1e-12 {
			aud.report(fmt.Errorf("core: audit: rack %d granted %v W at price %v above its max acceptable price %v",
				a.Rack, a.Watts, res.Price, mp))
		}
		load[m.cons.RackPDU[a.Rack]] += a.Watts
		total += a.Watts
	}
	for pdu, l := range load {
		if lim := m.cons.PDUSpot[pdu]; l > lim+auditEps(lim) {
			aud.report(fmt.Errorf("core: audit: PDU %d granted %v W beyond spot %v W (Eqn. 3)", pdu, l, lim))
		}
	}
	if lim := m.cons.UPSSpot; total > lim+auditEps(lim) {
		aud.report(fmt.Errorf("core: audit: UPS granted %v W beyond spot %v W (Eqn. 4)", total, lim))
	}
	if d := math.Abs(total - res.TotalWatts); d > auditEps(total) {
		aud.report(fmt.Errorf("core: audit: grants sum to %v W but TotalWatts is %v W (Δ %v)", total, res.TotalWatts, d))
	}
	wantRev := res.Price * res.TotalWatts / 1000
	if d := math.Abs(res.RevenueRate - wantRev); d > revEps+1e-12*math.Abs(wantRev) {
		aud.report(fmt.Errorf("core: audit: revenue rate %v $/h, want price×watts/1000 = %v $/h (Δ %v)",
			res.RevenueRate, wantRev, d))
	}
	if err := m.VerifyExtras(res.Allocations); err != nil {
		aud.report(fmt.Errorf("core: audit: %w", err))
	}
}
