// Allocation budgets for the market-clearing hot loop. The clearing engines
// keep reusable scratch inside the Market, so a steady-state Clear must not
// allocate (grid scan, with or without extras) or allocate only the result's
// grant slice bookkeeping (exact breakpoint search). These guards pin the budgets at the paper's
// largest operating point so regressions show up as test failures rather
// than silent GC pressure.
package spotdc_test

import (
	"testing"

	"spotdc/internal/core"
)

func TestClearAllocBudget(t *testing.T) {
	uniform := func(mkt *core.Market, bids []core.Bid) error {
		_, err := mkt.Clear(bids)
		return err
	}
	for _, tc := range []struct {
		name   string
		algo   core.Algorithm
		extras bool
		run    func(*core.Market, []core.Bid) error
		budget float64
	}{
		// The scan engine is fully allocation-free after warm-up.
		{"scan", core.AlgorithmScan, false, uniform, 0},
		// The exact engine keeps a small, rack-count-independent number of
		// allocations for its breakpoint heap bookkeeping (measured 11 at
		// 15,000 racks; budget leaves slack for runtime variation).
		{"exact", core.AlgorithmExact, false, uniform, 32},
		// Installed extras clear on the same grid loop; the zone/phase
		// predicate runs per price on market-owned scratch.
		{"scan-extras", core.AlgorithmAuto, true, uniform, 0},
		// Per-PDU pricing reuses one single-PDU market, so on the scan
		// engine only the returned []Result and the one grant array
		// backing it remain — no NewMarket per PDU (two rack-sized
		// copies each).
		{"per-pdu", core.AlgorithmScan, false, func(mkt *core.Market, bids []core.Bid) error {
			_, err := mkt.ClearPerPDU(bids)
			return err
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cons, bids := syntheticMarket(15000)
			mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.001, Algorithm: tc.algo})
			if err != nil {
				t.Fatal(err)
			}
			if tc.extras {
				if err := mkt.SetExtras(syntheticExtras(cons)); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up the reusable scratch once; every market clears each
			// slot of its life, so steady state is the meaningful regime.
			if err := tc.run(mkt, bids); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if err := tc.run(mkt, bids); err != nil {
					t.Fatal(err)
				}
			})
			if avg > tc.budget {
				t.Errorf("%s: %v allocs/op at 15000 racks, budget %v", tc.name, avg, tc.budget)
			}
		})
	}
}
