package sim

import (
	"reflect"
	"testing"

	"spotdc/internal/tenant"
	"spotdc/internal/workload"
)

func TestBidLossValidation(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 1, Slots: 5})
	sc.BidLossProb = -0.1
	if _, err := Run(sc, RunOptions{}); err == nil {
		t.Error("negative loss prob accepted")
	}
	sc.BidLossProb = 1.5
	if _, err := Run(sc, RunOptions{}); err == nil {
		t.Error("loss prob >1 accepted")
	}
}

// scrub zeroes the Result fields that legitimately differ between two runs
// of one scenario: ClearingTime is wall time, and Operator is a live object
// whose observable outputs (revenue, prices, grants) are already captured in
// the Result series.
func scrub(r *Result) {
	r.ClearingTime = 0
	r.Operator = nil
}

// TestBidLossIsSeeded pins the per-agent fault streams on the testbed and
// the scaled scenario: bids are really lost, the same FaultSeed reproduces
// the whole Result, and a different FaultSeed draws a different loss pattern.
func TestBidLossIsSeeded(t *testing.T) {
	cases := []struct {
		name     string
		scenario func(t *testing.T) Scenario
		lossProb float64
	}{
		{"testbed", func(t *testing.T) Scenario {
			return testbedScenario(t, TestbedOptions{Seed: 7, Slots: 120})
		}, 0.10},
		{"scaled", func(t *testing.T) Scenario {
			sc, err := Scaled(ScaledOptions{Testbed: TestbedOptions{Seed: 3, Slots: 60}, Tenants: 48})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(faultSeed int64) *Result {
				t.Helper()
				sc := c.scenario(t)
				sc.BidLossProb = c.lossProb
				sc.FaultSeed = faultSeed
				res, err := Run(sc, RunOptions{Mode: ModeSpotDC, Record: true})
				if err != nil {
					t.Fatal(err)
				}
				scrub(res)
				return res
			}
			first, again, other := run(99), run(99), run(100)
			if first.LostBids == 0 {
				t.Fatalf("fault injection inert: 0 lost bids at probability %v", c.lossProb)
			}
			if !reflect.DeepEqual(first, again) {
				t.Error("two runs with the same FaultSeed diverged")
			}
			if other.LostBids == first.LostBids && reflect.DeepEqual(other.PriceSeries, first.PriceSeries) {
				t.Errorf("FaultSeed 100 reproduced FaultSeed 99 (%d lost bids, same prices)", first.LostBids)
			}
		})
	}
}

func TestBidLossDegradesGracefully(t *testing.T) {
	opt := TestbedOptions{Seed: 21, Slots: 1500}
	clean, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	lossy := testbedScenario(t, opt)
	lossy.BidLossProb = 0.5
	lossy.FaultSeed = 7
	faulty, err := Run(lossy, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.LostBids == 0 {
		t.Fatal("no bids lost at 50% loss probability")
	}
	if clean.LostBids != 0 {
		t.Errorf("clean run lost %d bids", clean.LostBids)
	}
	// Revenue degrades but the system never errors and reliability holds.
	if faulty.SpotRevenue >= clean.SpotRevenue {
		t.Errorf("lossy revenue %v not below clean %v", faulty.SpotRevenue, clean.SpotRevenue)
	}
	if faulty.SpotRevenue <= 0 {
		t.Error("half the bids still arrive; revenue should not vanish")
	}
	if faulty.EmergencySlots > clean.EmergencySlots+2 {
		t.Errorf("bid loss increased emergencies: %d vs %d", faulty.EmergencySlots, clean.EmergencySlots)
	}
	// Deterministic given the fault seed.
	lossy2 := testbedScenario(t, opt)
	lossy2.BidLossProb = 0.5
	lossy2.FaultSeed = 7
	faulty2, err := Run(lossy2, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if faulty2.LostBids != faulty.LostBids || faulty2.SpotRevenue != faulty.SpotRevenue {
		t.Error("fault injection not deterministic")
	}
}

func TestPriceFeedbackObservesEveryClearing(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 3, Slots: 60})
	var calls int
	var positives int
	sc.PriceFeedback = func(slot int, price float64) {
		if slot != calls {
			t.Errorf("feedback slot %d out of order (want %d)", slot, calls)
		}
		calls++
		if price > 0 {
			positives++
		}
	}
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 60 {
		t.Errorf("feedback called %d times, want 60", calls)
	}
	if positives == 0 && len(res.Prices) > 0 {
		t.Error("positive prices cleared but feedback never saw one")
	}
}

func TestBundledAgentInSimulation(t *testing.T) {
	// Integration: a two-tier bundled tenant replaces two single-rack
	// agents and the simulation runs end to end with multi-rack grants.
	sc := testbedScenario(t, TestbedOptions{Seed: 5, Slots: 400})
	// Replace the two PDU#1 sprinting agents (racks of S-1 and S-2) with
	// one bundle spanning those racks.
	s1, ok1 := sc.Topo.RackByID("S-1")
	s2, ok2 := sc.Topo.RackByID("S-2")
	if !ok1 || !ok2 {
		t.Fatal("testbed racks missing")
	}
	var kept []tenant.Agent
	var load = sc.Agents[0].(*tenant.Sprint).Load
	for _, a := range sc.Agents {
		if a.Name() == "Search-1" || a.Name() == "Web" {
			continue
		}
		kept = append(kept, a)
	}
	front := workload.WebModel()
	back := workload.WebModel()
	back.Name = "web-db"
	bundle := &tenant.BundledSprint{
		TenantName: "WebPair",
		Tiers: []tenant.Tier{
			{Rack: s1, Model: front, Reserved: 115, Headroom: 50},
			{Rack: s2, Model: back, Reserved: 115, Headroom: 50},
		},
		Cost: workload.SprintCost{A: 1e-9, B: 6e-12, SLOms: 200},
		Load: load,
		QMin: 0.1,
		QMax: 0.4,
	}
	sc.Agents = append(kept, bundle)
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := res.Tenants["WebPair"]
	if !ok {
		t.Fatal("bundle stats missing")
	}
	if ts.Reserved != 230 {
		t.Errorf("bundle reserved = %v, want 230", ts.Reserved)
	}
	if ts.EnergyKWh <= 0 {
		t.Error("bundle consumed no energy")
	}
	if res.EmergencySlots > 3 {
		t.Errorf("bundled run caused %d emergencies", res.EmergencySlots)
	}
}
