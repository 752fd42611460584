// Instrumentation must not bend the clearing hot loop's allocation
// budgets: the metrics design (pre-registered handles, atomics only) means
// a Clear with a wired core.MarketMetrics performs the same number of heap
// allocations as an unwired one. TestClearAllocBudget pins the uninstrumented
// budgets; this file pins the instrumented ones to the SAME numbers.
package spotdc_test

import (
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
)

func instrumentedMarket(t testing.TB, racks int, algo core.Algorithm) (*core.Market, []core.Bid, *metrics.Registry) {
	t.Helper()
	cons, bids := syntheticMarket(racks)
	reg := metrics.NewRegistry()
	mkt, err := core.NewMarket(cons, core.Options{
		PriceStep: 0.001,
		Algorithm: algo,
		Metrics:   core.NewMarketMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	return mkt, bids, reg
}

func TestClearAllocBudgetInstrumented(t *testing.T) {
	for _, tc := range []struct {
		algo   core.Algorithm
		budget float64
	}{
		// Identical budgets to TestClearAllocBudget: instrumentation adds
		// zero allocations to either engine.
		{core.AlgorithmScan, 0},
		{core.AlgorithmExact, 32},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			mkt, bids, reg := instrumentedMarket(t, 15000, tc.algo)
			if _, err := mkt.Clear(bids); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := mkt.Clear(bids); err != nil {
					t.Fatal(err)
				}
			})
			if avg > tc.budget {
				t.Errorf("algo %v instrumented: %v allocs/Clear at 15000 racks, budget %v",
					tc.algo, avg, tc.budget)
			}
			// The instrumentation observed every clear.
			if got, ok := reg.Value("spotdc_market_clears_total", tc.algo.String()); !ok || got < 6 {
				t.Errorf("clears_total{engine=%v} = %v (ok=%v), want >= 6", tc.algo, got, ok)
			}
		})
	}
}
