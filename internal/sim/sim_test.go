package sim

import (
	"strings"
	"testing"

	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/stats"
	"spotdc/internal/tenant"
	"spotdc/internal/workload"
)

func testbedScenario(t *testing.T, opt TestbedOptions) Scenario {
	t.Helper()
	sc, err := Testbed(opt)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestModeString(t *testing.T) {
	if ModeSpotDC.String() != "SpotDC" || ModePowerCapped.String() != "PowerCapped" || ModeMaxPerf.String() != "MaxPerf" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should print")
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 1, Slots: 5})
	bad := sc
	bad.Topo = nil
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Error("nil topo accepted")
	}
	bad = sc
	bad.Slots = 0
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Error("zero slots accepted")
	}
	bad = sc
	bad.SlotSeconds = 0
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Error("zero slot seconds accepted")
	}
	bad = sc
	bad.OtherLoad = bad.OtherLoad[:1]
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Error("trace/PDU mismatch accepted")
	}
	bad = sc
	bad.Agents = append([]tenant.Agent{}, bad.Agents...)
	bad.Agents[0] = &tenant.Opp{TenantName: "ghost", RackIndex: 99, Model: workload.GraphModel(),
		Backlog: bad.OtherLoad[0], Reserved: 10, Headroom: 10}
	if _, err := Run(bad, RunOptions{}); err == nil {
		t.Error("out-of-range rack accepted")
	}
}

func TestTestbedTopologyMatchesTableI(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 1, Slots: 5})
	topo := sc.Topo
	if len(topo.PDUs) != 2 || topo.PDUs[0].Capacity != 715 || topo.PDUs[1].Capacity != 724 {
		t.Errorf("PDUs = %+v", topo.PDUs)
	}
	if topo.UPSCapacity != 1370 {
		t.Errorf("UPS = %v", topo.UPSCapacity)
	}
	if len(topo.Racks) != 8 || len(sc.Agents) != 8 {
		t.Errorf("racks=%d agents=%d, want 8/8", len(topo.Racks), len(sc.Agents))
	}
	// Table I subscriptions: 500 W participating on PDU#1, 510 W on PDU#2.
	if got := guaranteedOfPDU(topo, 0); got != 500 {
		t.Errorf("PDU#1 guaranteed = %v", got)
	}
	if got := guaranteedOfPDU(topo, 1); got != 510 {
		t.Errorf("PDU#2 guaranteed = %v", got)
	}
	// 5% oversubscription at each PDU including the 250 W "Other" leases.
	if os := (500.0 + 250) / 715; os < 1.04 || os > 1.06 {
		t.Errorf("PDU#1 oversubscription = %v", os)
	}
	classes := map[workload.Class]int{}
	for _, a := range sc.Agents {
		classes[a.Class()]++
	}
	if classes[workload.Sprinting] != 3 || classes[workload.Opportunistic] != 5 {
		t.Errorf("composition = %v, want 3 sprinting / 5 opportunistic", classes)
	}
}

func TestRunSpotDCShortTrace(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 7, Slots: 10, OtherVolatility: 0.08})
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 10 || len(res.PriceSeries) != 10 || len(res.UPSPower) != 10 {
		t.Fatalf("series lengths: %d %d %d", res.Slots, len(res.PriceSeries), len(res.UPSPower))
	}
	if len(res.PDUPower) != 2 || len(res.PDUPower[0]) != 10 {
		t.Fatalf("PDU series: %d", len(res.PDUPower))
	}
	if len(res.Tenants) != 8 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	for name, traceVals := range res.TenantTraces {
		if len(traceVals) != 10 {
			t.Errorf("trace %s has %d points", name, len(traceVals))
		}
	}
	// Spot sold never exceeds spot available.
	for i := range res.SpotSold {
		if res.SpotSold[i] > res.SpotAvailable[i]+1e-6 {
			t.Errorf("slot %d sold %v > available %v", i, res.SpotSold[i], res.SpotAvailable[i])
		}
	}
	if res.Hours() != 10*120.0/3600 {
		t.Errorf("Hours = %v", res.Hours())
	}
}

func TestRunYearLikeHorizonSellsSpot(t *testing.T) {
	// A week of 2-minute slots: long enough for bursts and backlog episodes
	// to appear at their configured rates.
	sc := testbedScenario(t, TestbedOptions{Seed: 3, Slots: 7 * 24 * 30})
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpotRevenue <= 0 {
		t.Fatal("no spot revenue over a week")
	}
	if len(res.Prices) == 0 {
		t.Fatal("no clearing prices recorded")
	}
	// Participation rates should be in the neighbourhood of the configured
	// 15% (sprinting) and 30% (opportunistic).
	for name, ts := range res.Tenants {
		frac := float64(ts.NeedSlots) / float64(res.Slots)
		switch ts.Class {
		case workload.Sprinting:
			if frac < 0.03 || frac > 0.4 {
				t.Errorf("%s need fraction %.3f implausible for burst-driven sprinting", name, frac)
			}
		case workload.Opportunistic:
			if frac < 0.15 || frac > 0.45 {
				t.Errorf("%s need fraction %.3f implausible for 30%% backlog", name, frac)
			}
		}
		if ts.EnergyKWh <= 0 {
			t.Errorf("%s consumed no energy", name)
		}
	}
	// Opportunistic tenants pay no more than their max price implies.
	for _, p := range res.Prices {
		if p < 0 {
			t.Errorf("negative price %v", p)
		}
	}
}

func TestRunModesOrdering(t *testing.T) {
	// The paper's central comparison (Fig. 12(b)): PowerCapped ≤ SpotDC ≤
	// MaxPerf in performance for participating tenants, and only SpotDC
	// produces operator revenue.
	opt := TestbedOptions{Seed: 11, Slots: 2000}
	scCap := testbedScenario(t, opt)
	scSpot := testbedScenario(t, opt)
	scMax := testbedScenario(t, opt)

	capped, err := Run(scCap, RunOptions{Mode: ModePowerCapped})
	if err != nil {
		t.Fatal(err)
	}
	spot, err := Run(scSpot, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	maxperf, err := Run(scMax, RunOptions{Mode: ModeMaxPerf})
	if err != nil {
		t.Fatal(err)
	}
	if capped.SpotRevenue != 0 || maxperf.SpotRevenue != 0 {
		t.Errorf("baselines billed: capped=%v maxperf=%v", capped.SpotRevenue, maxperf.SpotRevenue)
	}
	if spot.SpotRevenue <= 0 {
		t.Fatal("SpotDC earned nothing")
	}
	better, total := 0, 0
	for name, ts := range spot.Tenants {
		base := capped.Tenants[name]
		mp := maxperf.Tenants[name]
		if ts.NeedSlots == 0 {
			continue
		}
		total++
		if ts.PerfNeed.Mean() >= base.PerfNeed.Mean()-1e-9 {
			better++
		}
		// MaxPerf should not be materially worse than SpotDC on average.
		if mp.PerfNeed.Mean() < ts.PerfNeed.Mean()*0.9 {
			t.Errorf("%s: MaxPerf perf %v well below SpotDC %v", name, mp.PerfNeed.Mean(), ts.PerfNeed.Mean())
		}
	}
	if total == 0 {
		t.Fatal("no tenant ever needed spot capacity")
	}
	if better < total {
		t.Errorf("only %d/%d tenants at least as good under SpotDC as capped", better, total)
	}
	// PowerCapped must show SLO violations that SpotDC reduces.
	capViol, spotViol := 0, 0
	for name, ts := range capped.Tenants {
		if ts.Class == workload.Sprinting {
			capViol += ts.SLOViolations
			spotViol += spot.Tenants[name].SLOViolations
		}
	}
	if capViol == 0 {
		t.Error("premise: PowerCapped should violate SLOs sometimes")
	}
	if spotViol >= capViol {
		t.Errorf("SpotDC violations %d not below PowerCapped %d", spotViol, capViol)
	}
}

func TestRunDeterministic(t *testing.T) {
	opt := TestbedOptions{Seed: 5, Slots: 200}
	a, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if a.SpotRevenue != b.SpotRevenue {
		t.Errorf("revenue differs: %v vs %v", a.SpotRevenue, b.SpotRevenue)
	}
	for i := range a.PriceSeries {
		if a.PriceSeries[i] != b.PriceSeries[i] {
			t.Fatalf("price series differs at %d", i)
		}
	}
}

func TestTenantCost(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 5, Slots: 500})
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	pricing := operator.DefaultPricing()
	cost, err := TenantCost(res, pricing, "Search-1")
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tenants["Search-1"]
	// Subscription dominates: spot payments are a marginal addition.
	subscription := pricing.GuaranteedRevenueRate(ts.Reserved) * res.Hours()
	if cost < subscription {
		t.Errorf("cost %v below subscription %v", cost, subscription)
	}
	if ts.Payment > 0.05*cost {
		t.Errorf("spot payment %v is %.1f%% of cost %v; paper says marginal", ts.Payment, 100*ts.Payment/cost, cost)
	}
	if _, err := TenantCost(res, pricing, "nobody"); err == nil {
		t.Error("unknown tenant accepted")
	}
}

func TestEmergenciesDoNotIncreaseWithSpot(t *testing.T) {
	// Section V-B2: spot capacity must not introduce additional
	// emergencies, because it is only sold out of measured headroom.
	opt := TestbedOptions{Seed: 13, Slots: 3000, OtherVolatility: 0.03}
	capped, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModePowerCapped})
	if err != nil {
		t.Fatal(err)
	}
	spot, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	// Allow a tiny slack: spot users run hotter within their grants, so a
	// coincident other-load spike can differ by a slot or two.
	if spot.EmergencySlots > capped.EmergencySlots+int(0.002*float64(opt.Slots))+1 {
		t.Errorf("SpotDC emergencies %d well above PowerCapped %d", spot.EmergencySlots, capped.EmergencySlots)
	}
}

func TestScaledScenario(t *testing.T) {
	sc, err := Scaled(ScaledOptions{
		Testbed:    TestbedOptions{Seed: 2, Slots: 50},
		Tenants:    40,
		JitterFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Agents) != 40 {
		t.Fatalf("agents = %d", len(sc.Agents))
	}
	if len(sc.Topo.PDUs) != 10 { // 5 replicas × 2 PDUs
		t.Errorf("PDUs = %d", len(sc.Topo.PDUs))
	}
	if len(sc.Topo.Racks) != 40 {
		t.Errorf("racks = %d", len(sc.Topo.Racks))
	}
	// Jitter must hold reservations within ±20% of the Table I values.
	for _, r := range sc.Topo.Racks {
		base := 0.0
		switch {
		case strings.HasPrefix(r.ID, "S-1/") || strings.HasPrefix(r.ID, "S-3/"):
			base = 145
		case strings.HasPrefix(r.ID, "S-2/") || strings.HasPrefix(r.ID, "O-2/") || strings.HasPrefix(r.ID, "O-5/"):
			base = 115
		default:
			base = 125
		}
		if r.Guaranteed < base*0.79 || r.Guaranteed > base*1.21 {
			t.Errorf("rack %s guaranteed %v outside ±20%% of %v", r.ID, r.Guaranteed, base)
		}
	}
	res, err := Run(sc, RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpotRevenue <= 0 {
		t.Error("scaled run earned nothing")
	}
	if res.Clearings != 50 {
		t.Errorf("clearings = %d", res.Clearings)
	}
}

func TestScaledValidation(t *testing.T) {
	if _, err := Scaled(ScaledOptions{Tenants: 0}); err == nil {
		t.Error("zero tenants accepted")
	}
	if _, err := Scaled(ScaledOptions{Tenants: 8, JitterFrac: 1.5}); err == nil {
		t.Error("bad jitter accepted")
	}
}

func TestUnderPredictionReducesOfferedSpot(t *testing.T) {
	opt := TestbedOptions{Seed: 9, Slots: 300}
	plain, err := Run(testbedScenario(t, opt), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	optU := opt
	optU.UnderPrediction = 0.5
	under, err := Run(testbedScenario(t, optU), RunOptions{Mode: ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(under.SpotAvailable) >= stats.Mean(plain.SpotAvailable) {
		t.Errorf("under-prediction did not reduce offered spot: %v vs %v",
			stats.Mean(under.SpotAvailable), stats.Mean(plain.SpotAvailable))
	}
}

func TestHintReachesAgents(t *testing.T) {
	called := 0
	opt := TestbedOptions{Seed: 4, Slots: 20, Policy: tenant.PolicyPricePredict,
		Hint: func(slot int) tenant.MarketHint {
			called++
			return tenant.MarketHint{PredictedPrice: 0.2, HavePrediction: true}
		}}
	sc := testbedScenario(t, opt)
	if _, err := Run(sc, RunOptions{Mode: ModeSpotDC}); err != nil {
		t.Fatal(err)
	}
	if called != 20 {
		t.Errorf("hint called %d times, want 20", called)
	}
}

// guaranteedOfPDU sums the guaranteed capacity leased on PDU m.
func guaranteedOfPDU(t *power.Topology, m int) float64 {
	sum := 0.0
	for _, r := range t.RacksOfPDU(m) {
		sum += t.Racks[r].Guaranteed
	}
	return sum
}
