// Tracing must not bend the clearing hot loop's allocation budgets: a nil
// Tracer costs one branch per span site and zero allocations (the budgets
// here are IDENTICAL to TestClearAllocBudget's), and a sampling tracer
// stays within a small constant budget per Clear — the span freelist, the
// value-type ring and the fixed attr array mean steady state recycles
// everything. The wall-clock cost of tracing is the slot-budget
// benchmark's otrace.overhead_ratio (bench/).
package spotdc_test

import (
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/otrace"
)

// tracedMarket builds a 15,000-rack market whose Clear opens a "clear"
// span under root. A nil tracer exercises the tracing-off branch.
func tracedMarket(t testing.TB, algo core.Algorithm, tr *otrace.Tracer) (*core.Market, []core.Bid, *otrace.Span) {
	t.Helper()
	cons, bids := syntheticMarket(15000)
	mkt, err := core.NewMarket(cons, core.Options{
		PriceStep: 0.001,
		Algorithm: algo,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.StartRoot("slot", 0)
	mkt.SetTraceParent(root)
	return mkt, bids, root
}

func TestClearAllocBudgetTraced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		algo   core.Algorithm
		tracer *otrace.Tracer
		budget float64
	}{
		// Tracing off: budgets identical to TestClearAllocBudget — a nil
		// tracer adds zero allocations to either engine.
		{"off", core.AlgorithmScan, nil, 0},
		{"off", core.AlgorithmExact, nil, 32},
		// Tracing on at 100% sampling: the span comes from the freelist and
		// publishes into the preallocated ring, so the steady-state budget
		// gains only slack for runtime variation, not a per-span cost.
		{"on", core.AlgorithmScan, otrace.NewTracer(otrace.Options{SampleEvery: 1, Seed: 1}), 4},
		{"on", core.AlgorithmExact, otrace.NewTracer(otrace.Options{SampleEvery: 1, Seed: 1}), 36},
	} {
		t.Run(tc.name+"/"+tc.algo.String(), func(t *testing.T) {
			mkt, bids, root := tracedMarket(t, tc.algo, tc.tracer)
			defer root.End()
			if _, err := mkt.Clear(bids); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := mkt.Clear(bids); err != nil {
					t.Fatal(err)
				}
			})
			if avg > tc.budget {
				t.Errorf("algo %v tracing %s: %v allocs/Clear at 15000 racks, budget %v",
					tc.algo, tc.name, avg, tc.budget)
			}
		})
	}
}
