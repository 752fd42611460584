// Allocation budgets for the inline conservation auditor. The auditor
// rides the clearing hot loop (Options.Audit), so it must preserve the
// engines' steady-state allocation budgets exactly — 0 for the grid scan,
// ≤32 for the exact breakpoint search: its pass is one O(1)-per-bid loop
// over market-owned scratch.
package spotdc_test

import (
	"testing"

	"spotdc/internal/core"
)

func TestClearAllocBudgetAudited(t *testing.T) {
	for _, tc := range []struct {
		algo   core.Algorithm
		budget float64
	}{
		{core.AlgorithmScan, 0},
		{core.AlgorithmExact, 32},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			cons, bids := syntheticMarket(15000)
			aud := &core.Auditor{}
			mkt, err := core.NewMarket(cons, core.Options{
				PriceStep: 0.001, Algorithm: tc.algo, Audit: aud,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up grows the audit scratch once; steady state is what
			// every slot of the market's life pays.
			if _, err := mkt.Clear(bids); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := mkt.Clear(bids); err != nil {
					t.Fatal(err)
				}
			})
			if avg > tc.budget {
				t.Errorf("algo %v audited: %v allocs/Clear at 15000 racks, budget %v", tc.algo, avg, tc.budget)
			}
			if aud.Violations() != 0 {
				t.Fatalf("synthetic market flagged: %v", aud.Err())
			}
		})
	}
}
