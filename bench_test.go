// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; DESIGN.md maps IDs to paper artifacts).
// Horizons are bench-sized via experiments.Options; run
// cmd/spotdc-experiments for the full-scale numbers recorded in
// EXPERIMENTS.md.
package spotdc_test

import (
	"fmt"
	"testing"

	"spotdc/internal/billing"
	"spotdc/internal/capping"
	"spotdc/internal/core"
	"spotdc/internal/experiments"
	"spotdc/internal/operator"
	"spotdc/internal/sim"
)

// benchOpt shrinks the experiment horizons so each benchmark iteration
// stays in the tens-of-milliseconds range while exercising the same code
// paths as the full runs.
func benchOpt() experiments.Options {
	return experiments.Options{
		Seed:          42,
		LongSlots:     1200,
		ScaleTenants:  []int{8, 50},
		ScaleSlots:    60,
		ClearingRacks: []int{1500},
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := benchOpt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Table I: building the scaled-down testbed scenario.
func BenchmarkTableITestbedBuild(b *testing.B) { benchExperiment(b, "table1") }

// Fig. 2(b): aggregate-power CDFs with and without oversubscription.
func BenchmarkFig2PowerCDF(b *testing.B) { benchExperiment(b, "fig2b") }

// Fig. 3: demand-function shapes and the 10-rack aggregate.
func BenchmarkFig3DemandFunctions(b *testing.B) { benchExperiment(b, "fig3") }

// Fig. 7(a): PDU power variation between consecutive slots.
func BenchmarkFig7aPowerVariation(b *testing.B) { benchExperiment(b, "fig7a") }

// Fig. 7(b): market clearing time at scale (the headline scalability
// result). Sub-benchmarks measure one clearing round directly at the
// paper's operating points — up to 15,000 racks, price steps of 0.1 and 1
// cents/kW — for both engines: the paper's grid scan and the exact
// breakpoint-driven search (the fig7b experiment tabulates the comparison).
func BenchmarkFig7bClearingTime(b *testing.B) {
	for _, racks := range []int{1500, 5000, 15000} {
		for _, step := range []float64{0.001, 0.01} {
			for _, algo := range []core.Algorithm{core.AlgorithmScan, core.AlgorithmExact} {
				b.Run(fmt.Sprintf("racks=%d/step=%v/algo=%v", racks, step, algo), func(b *testing.B) {
					cons, bids := syntheticMarket(racks)
					mkt, err := core.NewMarket(cons, core.Options{PriceStep: step, Algorithm: algo})
					if err != nil {
						b.Fatal(err)
					}
					// Warm up the market's reusable scratch buffers once: a
					// market clears every slot of its life, so the
					// steady-state per-slot cost is the meaningful figure
					// (and -benchtime=1x runs would otherwise charge the
					// one-time warm-up growth to the measurement).
					if _, err := mkt.Clear(bids); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := mkt.Clear(bids)
						if err != nil {
							b.Fatal(err)
						}
						if res.TotalWatts <= 0 {
							b.Fatal("nothing cleared")
						}
					}
				})
			}
		}
	}
}

// syntheticMarket fabricates a large data center: 50 racks per PDU, one
// elastic bid per rack with testbed-like parameters (mirrors the Fig. 7(b)
// experiment driver).
func syntheticMarket(racks int) (core.Constraints, []core.Bid) {
	pdus := (racks + 49) / 50
	cons := core.Constraints{
		RackHeadroom: make([]float64, racks),
		RackPDU:      make([]int, racks),
		PDUSpot:      make([]float64, pdus),
		UPSSpot:      float64(racks) * 20,
	}
	bids := make([]core.Bid, 0, racks)
	for i := 0; i < racks; i++ {
		cons.RackHeadroom[i] = 60
		cons.RackPDU[i] = i / 50
		cons.PDUSpot[i/50] += 25
		v := float64((int64(i)*2654435761 + 42) % 97 / 1)
		v = v / 97
		bids = append(bids, core.Bid{Rack: i, Tenant: fmt.Sprintf("t%d", i), Fn: core.LinearBid{
			DMax: 20 + 40*v,
			DMin: 5 * v,
			QMin: 0.02 + 0.1*v,
			QMax: 0.16 + 0.5*v,
		}})
	}
	return cons, bids
}

// syntheticExtras lays Section III-A extras over a synthetic market: racks
// striped across the three phases and a 250 W heat-density zone per ten
// consecutive racks.
func syntheticExtras(cons core.Constraints) *core.Extras {
	phases := make(core.PhaseOf, len(cons.RackHeadroom))
	zones := make([]core.Zone, 0, len(cons.RackHeadroom)/10)
	for i := range phases {
		phases[i] = i % 3
	}
	for z := 0; z+10 <= len(cons.RackHeadroom); z += 10 {
		racks := make([]int, 10)
		for j := range racks {
			racks[j] = z + j
		}
		zones = append(zones, core.Zone{Name: fmt.Sprintf("z%d", z), Racks: racks, MaxWatts: 250})
	}
	return &core.Extras{Zones: zones, RackPhase: phases, PhaseImbalance: 0.5}
}

// Fig. 8: power-performance relation tables.
func BenchmarkFig8PowerPerformance(b *testing.B) { benchExperiment(b, "fig8") }

// Fig. 9: dollar-valued performance-gain curves.
func BenchmarkFig9PerfGain(b *testing.B) { benchExperiment(b, "fig9") }

// Fig. 10: the 20-minute testbed trace (allocation + price).
func BenchmarkFig10Trace(b *testing.B) { benchExperiment(b, "fig10") }

// Fig. 11: tenant performance over the 20-minute trace.
func BenchmarkFig11Performance(b *testing.B) { benchExperiment(b, "fig11") }

// Fig. 12: cost/performance/spot-usage vs PowerCapped and MaxPerf.
func BenchmarkFig12CostPerf(b *testing.B) { benchExperiment(b, "fig12") }

// Fig. 13: CDFs of market price and UPS power utilization.
func BenchmarkFig13CDFs(b *testing.B) { benchExperiment(b, "fig13") }

// Fig. 14: StepBid vs LinearBid vs FullBid across spot availability.
func BenchmarkFig14DemandFunctions(b *testing.B) { benchExperiment(b, "fig14") }

// Fig. 15: profit and performance vs spot availability.
func BenchmarkFig15Availability(b *testing.B) { benchExperiment(b, "fig15") }

// Fig. 16: price-predicting strategic bidding.
func BenchmarkFig16Strategy(b *testing.B) { benchExperiment(b, "fig16") }

// Fig. 17: conservative spot under-prediction sweep.
func BenchmarkFig17UnderPrediction(b *testing.B) { benchExperiment(b, "fig17") }

// Fig. 18: scaling the number of tenants.
func BenchmarkFig18Scale(b *testing.B) { benchExperiment(b, "fig18") }

// Ablation: the per-PDU pricing alternative discussed in DESIGN.md,
// compared against the paper's single uniform price on the same bids.
func BenchmarkAblationPerPDUPricing(b *testing.B) {
	cons, bids := syntheticMarket(1500)
	mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mkt.Clear(bids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-pdu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mkt.ClearPerPDU(bids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: clearing-price step size vs revenue found (finer steps cost
// time; DESIGN.md calls this design choice out).
func BenchmarkAblationPriceStep(b *testing.B) {
	cons, bids := syntheticMarket(3000)
	for _, step := range []float64{0.0005, 0.001, 0.005, 0.01, 0.05} {
		b.Run(fmt.Sprintf("step=%v", step), func(b *testing.B) {
			mkt, err := core.NewMarket(cons, core.Options{PriceStep: step})
			if err != nil {
				b.Fatal(err)
			}
			var revenue float64
			for i := 0; i < b.N; i++ {
				res, err := mkt.Clear(bids)
				if err != nil {
					b.Fatal(err)
				}
				revenue = res.RevenueRate
			}
			b.ReportMetric(revenue, "revenue-$/h")
		})
	}
}

// Extension benchmarks (beyond the paper's tables/figures).

// Clearing under the Section III-A extras (heat-density zones and phase
// balance) scans every grid price with full constraint checks.
func BenchmarkExtrasClearing(b *testing.B) {
	cons, bids := syntheticMarket(1500)
	mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.005})
	if err != nil {
		b.Fatal(err)
	}
	if err := mkt.SetExtras(syntheticExtras(cons)); err != nil {
		b.Fatal(err)
	}
	// Warm up the market-owned scratch: steady state is what a market that
	// clears every slot pays.
	if _, err := mkt.Clear(bids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mkt.Clear(bids); err != nil {
			b.Fatal(err)
		}
	}
}

// The tenant-side PI power-capping loop converging to a new budget.
func BenchmarkCappingSettle(b *testing.B) {
	model := capping.ServerModel{IdleWatts: 60, PeakWatts: 205, Alpha: 1.5, MinKnob: 0.2}
	for i := 0; i < b.N; i++ {
		c, err := capping.New(capping.Config{Model: model, InitialBudget: 145})
		if err != nil {
			b.Fatal(err)
		}
		if _, ticks := c.Settle(0.95, 0.5, 500); ticks >= 500 {
			b.Fatal("did not settle")
		}
	}
}

// Invoice generation from a finished month-scale run.
func BenchmarkInvoices(b *testing.B) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 42, Slots: 2000})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC})
	if err != nil {
		b.Fatal(err)
	}
	pricing := operator.DefaultPricing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invs, err := billing.FromSimResult(res, pricing)
		if err != nil {
			b.Fatal(err)
		}
		if len(invs) != 8 {
			b.Fatal("wrong invoice count")
		}
	}
}
