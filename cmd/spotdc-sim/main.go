// Command spotdc-sim runs a SpotDC simulation scenario and prints the
// per-tenant and operator summary.
//
// Usage:
//
//	spotdc-sim [-scenario testbed|scaled] [-mode spotdc|capped|maxperf]
//	           [-slots N] [-seed N] [-tenants N] [-capacity-scale X]
//	           [-under-prediction X] [-policy elastic|simple|step|full]
//	           [-trace-csv FILE]
//	spotdc-sim -config scenario.json   (declarative form; see internal/config)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"spotdc/internal/billing"
	"spotdc/internal/config"
	"spotdc/internal/operator"
	"spotdc/internal/sim"
	"spotdc/internal/tenant"
	"spotdc/internal/trace"
)

func main() {
	scenario := flag.String("scenario", "testbed", "testbed or scaled")
	mode := flag.String("mode", "spotdc", "spotdc, capped or maxperf")
	slots := flag.Int("slots", 3000, "number of 2-minute slots")
	seed := flag.Int64("seed", 42, "trace seed")
	tenants := flag.Int("tenants", 100, "tenant count for -scenario scaled")
	capacityScale := flag.Float64("capacity-scale", 1, "PDU/UPS capacity multiplier (spot availability knob)")
	underPrediction := flag.Float64("under-prediction", 0, "conservative prediction factor (0.15 = offer 85%)")
	policy := flag.String("policy", "elastic", "bidding policy: elastic, simple, step or full")
	traceCSV := flag.String("trace-csv", "", "write the UPS power trace to this CSV file")
	configPath := flag.String("config", "", "load a declarative scenario JSON instead of using flags")
	invoices := flag.Bool("invoices", false, "print per-tenant invoices after the run")
	flag.Parse()

	var sc sim.Scenario
	var m sim.Mode
	otherLeased := 500.0
	if *configPath != "" {
		cfg, err := config.Load(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if sc, err = cfg.Build(); err != nil {
			log.Fatal(err)
		}
		if m, err = cfg.RunMode(); err != nil {
			log.Fatal(err)
		}
		otherLeased = cfg.OtherLeasedWatts()
	} else {
		pol, err := parsePolicy(*policy)
		if err != nil {
			log.Fatal(err)
		}
		tb := sim.TestbedOptions{
			Seed:            *seed,
			Slots:           *slots,
			CapacityScale:   *capacityScale,
			UnderPrediction: *underPrediction,
			Policy:          pol,
		}
		switch *scenario {
		case "testbed":
			sc, err = sim.Testbed(tb)
		case "scaled":
			sc, err = sim.Scaled(sim.ScaledOptions{Testbed: tb, Tenants: *tenants, JitterFrac: 0.2})
			otherLeased = 500 * float64((*tenants+7)/8)
		default:
			log.Fatalf("spotdc-sim: unknown scenario %q", *scenario)
		}
		if err != nil {
			log.Fatal(err)
		}
		switch *mode {
		case "spotdc":
			m = sim.ModeSpotDC
		case "capped":
			m = sim.ModePowerCapped
		case "maxperf":
			m = sim.ModeMaxPerf
		default:
			log.Fatalf("spotdc-sim: unknown mode %q", *mode)
		}
	}

	res, err := sim.Run(sc, sim.RunOptions{Mode: m})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario=%s mode=%s slots=%d (%.1f h)\n\n", sc.Name, res.Mode, res.Slots, res.Hours())
	names := make([]string, 0, len(res.Tenants))
	for n := range res.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	shown := 0
	for _, n := range names {
		if shown >= 16 {
			fmt.Printf("  ... and %d more tenants\n", len(names)-shown)
			break
		}
		ts := res.Tenants[n]
		fmt.Printf("  %-12s %-13s need=%5d grants=%5d SLO-miss=%4d avg-spot=%5.1f%%res paid=$%.4f energy=%.2fkWh\n",
			ts.Name, ts.Class, ts.NeedSlots, ts.GrantSlots, ts.SLOViolations,
			100*ts.GrantFrac.Mean(), ts.Payment, ts.EnergyKWh)
		shown++
	}
	profit := res.Profit(otherLeased)
	fmt.Printf("\noperator: spot revenue $%.4f, spot energy %.2f kWh, emergencies %d slots\n",
		res.SpotRevenue, res.Operator.SpotEnergyKWh(), res.EmergencySlots)
	fmt.Printf("extra profit vs PowerCapped baseline: %.1f%% (baseline $%.2f, rack capex $%.5f)\n",
		100*profit.ExtraProfitFraction, profit.BaselineProfit, profit.RackCapex)
	if res.Clearings > 0 {
		fmt.Printf("market clearings: %d, total clearing time %v (%.2f ms avg)\n",
			res.Clearings, res.ClearingTime,
			float64(res.ClearingTime.Milliseconds())/float64(res.Clearings))
	}

	if *invoices {
		invs, err := billing.FromSimResult(res, operator.DefaultPricing())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		for _, inv := range invs {
			if err := inv.Fprint(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *traceCSV != "" {
		f, err := os.Create(*traceCSV)
		if err != nil {
			log.Fatal(err)
		}
		tr := &trace.Power{Name: "ups-power", SlotSeconds: sc.SlotSeconds, Watts: res.UPSPower}
		if err := tr.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote UPS power trace to %s\n", *traceCSV)
	}
}

func parsePolicy(s string) (tenant.BidPolicy, error) {
	switch s {
	case "elastic":
		return tenant.PolicyElastic, nil
	case "simple":
		return tenant.PolicySimple, nil
	case "step":
		return tenant.PolicyStep, nil
	case "full":
		return tenant.PolicyFull, nil
	default:
		return 0, fmt.Errorf("spotdc-sim: unknown policy %q", s)
	}
}
