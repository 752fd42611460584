package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// twoPDUConstraints builds a small two-PDU market mirroring the testbed
// layout: racks 0–3 on PDU 0, racks 4–7 on PDU 1.
func twoPDUConstraints(pduSpot0, pduSpot1, upsSpot float64) Constraints {
	return Constraints{
		RackHeadroom: []float64{60, 50, 60, 50, 60, 60, 60, 50},
		RackPDU:      []int{0, 0, 0, 0, 1, 1, 1, 1},
		PDUSpot:      []float64{pduSpot0, pduSpot1},
		UPSSpot:      upsSpot,
	}
}

func TestConstraintsValidate(t *testing.T) {
	ok := twoPDUConstraints(100, 100, 180)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Constraints{
		{RackHeadroom: []float64{1}, RackPDU: []int{0, 0}, PDUSpot: []float64{1}},
		{RackHeadroom: []float64{1}, RackPDU: []int{2}, PDUSpot: []float64{1}},
		{RackHeadroom: []float64{-1}, RackPDU: []int{0}, PDUSpot: []float64{1}},
		{RackHeadroom: []float64{1}, RackPDU: []int{0}, PDUSpot: []float64{-1}},
		{RackHeadroom: []float64{1}, RackPDU: []int{0}, PDUSpot: []float64{1}, UPSSpot: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConstraints) {
			t.Errorf("bad constraints %d accepted: %v", i, err)
		}
	}
}

func TestNewMarketCopiesConstraints(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 180)
	m, err := NewMarket(cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cons.PDUSpot[0] = 0 // mutating the caller's slice must not affect the market
	got := m.Constraints()
	if got.PDUSpot[0] != 100 {
		t.Error("market aliased caller's PDUSpot")
	}
	got.RackHeadroom[0] = -5
	if m.Constraints().RackHeadroom[0] != 60 {
		t.Error("Constraints() leaked internal storage")
	}
}

func TestClearNoBids(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 180), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts != 0 || res.RevenueRate != 0 || len(res.Allocations) != 0 {
		t.Errorf("empty clear: %+v", res)
	}
}

func TestClearSingleBidUnconstrained(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(200, 200, 400), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// Demand 50 W flat up to 0.2: revenue = q*50/1000 is maximized at the
	// highest price with positive demand.
	res, err := m.Clear([]Bid{{Rack: 0, Tenant: "t", Fn: StepBid{D: 50, QMax: 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-0.2) > 0.0015 {
		t.Errorf("price = %v, want ≈0.2", res.Price)
	}
	if math.Abs(res.TotalWatts-50) > 1e-9 {
		t.Errorf("watts = %v, want 50", res.TotalWatts)
	}
	if math.Abs(res.RevenueRate-res.Price*50/1000) > 1e-9 {
		t.Errorf("revenue = %v", res.RevenueRate)
	}
}

func TestClearElasticRevenueMaximization(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(500, 500, 1000), Options{PriceStep: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	// Pure linear demand D(q) = 100*(1 - q/0.4) for q in [0, 0.4] (headroom
	// raised so it never binds). Revenue q*D(q) peaks at q = 0.2.
	cons := m.Constraints()
	cons.RackHeadroom[0] = 1000
	m2, err := NewMarket(cons, Options{PriceStep: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m2.Clear([]Bid{{Rack: 0, Fn: LinearBid{DMax: 100, DMin: 0, QMin: 0, QMax: 0.4}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-0.2) > 0.001 {
		t.Errorf("price = %v, want ≈0.2 (revenue max of q·D(q))", res.Price)
	}
	if math.Abs(res.TotalWatts-50) > 0.5 {
		t.Errorf("watts = %v, want ≈50", res.TotalWatts)
	}
}

func TestClearRackHeadroomClamps(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(500, 500, 1000), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// Rack 0 has 60 W headroom but demands 200 W.
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 200, QMax: 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Allocations[0].Watts-60) > 1e-9 {
		t.Errorf("allocation = %v, want clamped to 60 (Eqn. 2)", res.Allocations[0].Watts)
	}
	if err := m.VerifyFeasible(res.Allocations); err != nil {
		t.Errorf("allocation infeasible: %v", err)
	}
}

func TestClearPDUConstraintRaisesPrice(t *testing.T) {
	// PDU 0 has only 60 W spot; two racks on it each demand up to 60 W with
	// elastic linear bids. The market must raise the price until the summed
	// demand fits 60 W.
	m, err := NewMarket(twoPDUConstraints(60, 500, 1000), Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Tenant: "a", Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Tenant: "b", Fn: LinearBid{DMax: 50, DMin: 0, QMin: 0.05, QMax: 0.4}},
	}
	res, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts > 60+1e-6 {
		t.Errorf("sold %v W on a 60 W PDU", res.TotalWatts)
	}
	// At the unconstrained optimum the total would exceed 60 W, so the
	// constraint must bind (total close to 60) rather than sell almost
	// nothing at a needlessly high price.
	if res.TotalWatts < 55 {
		t.Errorf("sold only %v W; constraint should bind near 60 W", res.TotalWatts)
	}
	if err := m.VerifyFeasible(res.Allocations); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestClearUPSConstraint(t *testing.T) {
	// Each PDU individually has room, but the UPS only has 80 W.
	m, err := NewMarket(twoPDUConstraints(100, 100, 80), Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.05, QMax: 0.4}},
		{Rack: 4, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.05, QMax: 0.4}},
	}
	res, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts > 80+1e-6 {
		t.Errorf("sold %v W on an 80 W UPS", res.TotalWatts)
	}
	// The interior revenue maximum of q·2D(q) for these bids is at q = 0.2,
	// selling ~68.6 W — deliberately below the 80 W cap. This mirrors the
	// paper's Fig. 10 note that profit-maximizing pricing leaves some spot
	// capacity unsold.
	if math.Abs(res.Price-0.2) > 0.002 {
		t.Errorf("price = %v, want ≈0.2 (interior revenue max)", res.Price)
	}
	if math.Abs(res.TotalWatts-68.57) > 1 {
		t.Errorf("sold %v W, want ≈68.6", res.TotalWatts)
	}
	if err := m.VerifyFeasible(res.Allocations); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestClearInfeasibleInelasticDemand(t *testing.T) {
	// A step bid of 100 W on a PDU with 50 W spot can never be served: the
	// only feasible prices are above its QMax, so nothing sells.
	m, err := NewMarket(twoPDUConstraints(50, 500, 1000), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 100, QMax: 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Headroom clamp brings 100 down to 60 which still exceeds 50.
	if res.TotalWatts != 0 {
		t.Errorf("sold %v W, want 0 (demand inelastic and infeasible)", res.TotalWatts)
	}
	if err := m.VerifyFeasible(res.Allocations); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestClearSprintingPricesOutOpportunistic(t *testing.T) {
	// Reproduces the Fig. 10 dynamic: when a sprinting tenant with a high
	// max price joins, the clearing price rises and low-bidding
	// opportunistic tenants are priced out.
	m, err := NewMarket(twoPDUConstraints(70, 500, 1000), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	oppOnly := []Bid{
		{Rack: 2, Tenant: "opp", Fn: LinearBid{DMax: 60, DMin: 10, QMin: 0.02, QMax: 0.2}},
	}
	resOpp, err := m.Clear(oppOnly)
	if err != nil {
		t.Fatal(err)
	}
	both := append([]Bid{
		{Rack: 0, Tenant: "sprint", Fn: LinearBid{DMax: 60, DMin: 40, QMin: 0.3, QMax: 0.8}},
	}, oppOnly...)
	resBoth, err := m.Clear(both)
	if err != nil {
		t.Fatal(err)
	}
	if resBoth.Price <= resOpp.Price {
		t.Errorf("price with sprinter %v should exceed opportunistic-only price %v", resBoth.Price, resOpp.Price)
	}
	var sprintW, oppW float64
	for i, a := range resBoth.Allocations {
		if both[i].Tenant == "sprint" {
			sprintW = a.Watts
		} else {
			oppW = a.Watts
		}
	}
	if sprintW < 40 {
		t.Errorf("sprinting tenant got %v W, want ≥ its DMin 40", sprintW)
	}
	if oppW >= 10 {
		t.Errorf("opportunistic tenant got %v W, want priced out (<10)", oppW)
	}
}

func TestClearMorSpotLowersPrice(t *testing.T) {
	// Fig. 10 again: more available spot capacity lowers the market price.
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.02, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 50, DMin: 0, QMin: 0.02, QMax: 0.4}},
	}
	scarce, err := NewMarket(twoPDUConstraints(40, 500, 1000), Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rich, err := NewMarket(twoPDUConstraints(200, 500, 1000), Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scarce.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rich.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Price <= rr.Price {
		t.Errorf("scarce price %v should exceed rich price %v", rs.Price, rr.Price)
	}
}

func TestClearReservePrice(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(500, 500, 1000), Options{PriceStep: 0.001, ReservePrice: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// A bid whose max price is below the reserve sells nothing.
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 50, QMax: 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts != 0 {
		t.Errorf("sold %v W below reserve price", res.TotalWatts)
	}
	if res.Price < 0.1 {
		t.Errorf("price %v below reserve", res.Price)
	}
}

func TestClearBadBids(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Clear([]Bid{{Rack: 99, Fn: StepBid{D: 1, QMax: 1}}}); !errors.Is(err, ErrConstraints) {
		t.Error("out-of-range rack accepted")
	}
	if _, err := m.Clear([]Bid{{Rack: 0}}); !errors.Is(err, ErrBid) {
		t.Error("nil demand function accepted")
	}
}

func TestSetSpot(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpot([]float64{10, 20}, 25); err != nil {
		t.Fatal(err)
	}
	c := m.Constraints()
	if c.PDUSpot[0] != 10 || c.PDUSpot[1] != 20 || c.UPSSpot != 25 {
		t.Errorf("SetSpot not applied: %+v", c)
	}
	if err := m.SetSpot([]float64{1}, 5); !errors.Is(err, ErrConstraints) {
		t.Error("wrong length accepted")
	}
	if err := m.SetSpot([]float64{-1, 0}, 5); !errors.Is(err, ErrConstraints) {
		t.Error("negative PDU spot accepted")
	}
	if err := m.SetSpot([]float64{1, 1}, -5); !errors.Is(err, ErrConstraints) {
		t.Error("negative UPS spot accepted")
	}
}

func TestVerifyFeasibleRejects(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 120), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		allocs []Allocation
	}{
		{"bad rack", []Allocation{{Rack: 50, Watts: 1}}},
		{"negative", []Allocation{{Rack: 0, Watts: -1}}},
		{"headroom", []Allocation{{Rack: 0, Watts: 61}}},
		{"pdu", []Allocation{{Rack: 0, Watts: 60}, {Rack: 1, Watts: 50}, {Rack: 2, Watts: 30}}},
		{"ups", []Allocation{{Rack: 0, Watts: 60}, {Rack: 1, Watts: 40}, {Rack: 4, Watts: 30}}},
	}
	for _, c := range cases {
		if err := m.VerifyFeasible(c.allocs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := m.VerifyFeasible([]Allocation{{Rack: 0, Watts: 60}, {Rack: 4, Watts: 60}}); err != nil {
		t.Errorf("feasible allocation rejected: %v", err)
	}
}

func TestLinearBidBeatsStepBidUnderScarcity(t *testing.T) {
	// The Section V-C comparison in miniature: under scarce spot capacity,
	// elastic linear bids let the operator partially serve demand and earn
	// more than all-or-nothing step bids.
	cons := twoPDUConstraints(50, 500, 1000)
	linear := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 50, DMin: 5, QMin: 0.05, QMax: 0.4}},
	}
	step := []Bid{
		{Rack: 0, Fn: StepBid{D: 60, QMax: 0.4}},
		{Rack: 1, Fn: StepBid{D: 50, QMax: 0.4}},
	}
	m1, err := NewMarket(cons, Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rLin, err := m1.Clear(linear)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMarket(cons, Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	rStep, err := m2.Clear(step)
	if err != nil {
		t.Fatal(err)
	}
	// Step bids are infeasible together (110 > 50) at any price ≤ 0.4, so
	// nothing sells; linear bids are partially served.
	if rStep.TotalWatts != 0 {
		t.Errorf("step bids sold %v W, want 0", rStep.TotalWatts)
	}
	if rLin.RevenueRate <= rStep.RevenueRate {
		t.Errorf("linear revenue %v not above step revenue %v", rLin.RevenueRate, rStep.RevenueRate)
	}
}

func TestClearPerPDU(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 120), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.02, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 50, DMin: 0, QMin: 0.02, QMax: 0.4}},
		{Rack: 4, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.02, QMax: 0.4}},
		{Rack: 5, Fn: LinearBid{DMax: 60, DMin: 0, QMin: 0.02, QMax: 0.4}},
	}
	results, err := m.ClearPerPDU(bids)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want one per PDU", len(results))
	}
	total := results[0].TotalWatts + results[1].TotalWatts
	if total > 120+1e-6 {
		t.Errorf("per-PDU clearing sold %v W beyond the 120 W UPS", total)
	}
	for pdu, r := range results {
		if r.TotalWatts > 100+1e-6 {
			t.Errorf("PDU %d sold %v W beyond its 100 W spot", pdu, r.TotalWatts)
		}
	}
	if _, err := m.ClearPerPDU([]Bid{{Rack: 42, Fn: StepBid{D: 1, QMax: 1}}}); !errors.Is(err, ErrConstraints) {
		t.Error("bad rack accepted")
	}

	// Inelastic bids fill each PDU's 100 W spot on its own, 200 W in all,
	// past the 120 W UPS: the UPS loop must price PDUs up until the total
	// fits.
	inelastic := []Bid{
		{Rack: 0, Fn: StepBid{D: 50, QMax: 0.4}},
		{Rack: 1, Fn: StepBid{D: 50, QMax: 0.3}},
		{Rack: 4, Fn: StepBid{D: 50, QMax: 0.4}},
		{Rack: 5, Fn: StepBid{D: 50, QMax: 0.35}},
	}
	loose, err := NewMarket(twoPDUConstraints(100, 100, 200), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	before, err := loose.ClearPerPDU(inelastic)
	if err != nil {
		t.Fatal(err)
	}
	if total := before[0].TotalWatts + before[1].TotalWatts; total <= 120+feasEps {
		t.Fatalf("test premise broken: per-PDU totals %v W fit the 120 W UPS without repricing", total)
	}
	after, err := m.ClearPerPDU(inelastic)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Price == before[0].Price && after[1].Price == before[1].Price {
		t.Error("UPS loop did not reprice any PDU")
	}
	if total := after[0].TotalWatts + after[1].TotalWatts; total > 120+feasEps {
		t.Errorf("per-PDU clearing sold %v W beyond the 120 W UPS", total)
	}
	for pdu, r := range after {
		if r.TotalWatts > 100+feasEps {
			t.Errorf("PDU %d sold %v W beyond its 100 W spot", pdu, r.TotalWatts)
		}
	}
}

// Each PDU's result is exactly what a standalone Clear returns for that
// PDU's bids on a market whose only spot is that PDU's — for both engines,
// with interleaved bid order, an empty PDU, and repeated calls on the same
// (scratch-reusing) market.
func TestClearPerPDUEqualsStandaloneClear(t *testing.T) {
	cons := Constraints{
		RackHeadroom: []float64{60, 50, 60, 50, 60, 60, 60, 50, 60},
		RackPDU:      []int{0, 0, 0, 1, 1, 1, 2, 2, 3},
		PDUSpot:      []float64{70, 90, 0, 40}, // PDU 2 has bids but no spot
		UPSSpot:      1000,                     // not binding: no price-up pass
	}
	rng := rand.New(rand.NewSource(11))
	for _, algo := range []Algorithm{AlgorithmAuto, AlgorithmScan} {
		m, err := NewMarket(cons, Options{PriceStep: 0.001, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			var bids []Bid
			for _, r := range rng.Perm(8) { // rack 8 (PDU 3) never bids
				if rng.Float64() < 0.2 {
					continue
				}
				b := randomBid(rng, r)
				b.Tenant = fmt.Sprint("t", r)
				bids = append(bids, b)
			}
			results, err := m.ClearPerPDU(bids)
			if err != nil {
				t.Fatal(err)
			}
			for pdu, got := range results {
				var own []Bid
				for _, b := range bids {
					if cons.RackPDU[b.Rack] == pdu {
						own = append(own, b)
					}
				}
				iso := cons
				iso.PDUSpot = make([]float64, len(cons.PDUSpot))
				iso.PDUSpot[pdu], iso.UPSSpot = cons.PDUSpot[pdu], cons.PDUSpot[pdu]
				alone, err := NewMarket(iso, Options{PriceStep: 0.001, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				want, err := alone.Clear(own)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Allocations) == 0 {
					want.Allocations = nil
				}
				if len(got.Allocations) == 0 {
					got.Allocations = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v round %d PDU %d:\n per-PDU    %+v\n standalone %+v", algo, round, pdu, got, want)
				}
			}
		}
	}
}

func TestClearEvaluationsBounded(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 200), Options{PriceStep: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 10, QMax: 0.2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Scan of [0, 0.2] at step 0.01 is ~21 evaluations plus the feasibility
	// probe; anything wildly above that means the search is broken.
	if res.Evaluations < 2 || res.Evaluations > 60 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
}

// Property: for random elastic bid sets and random spot capacities, the
// cleared allocation always satisfies Eqns. (2)–(4), revenue is
// non-negative, and every allocation matches the bid's demand at the
// clearing price (clamped to headroom).
func TestQuickClearFeasibleAndConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRacks := 4 + rng.Intn(8)
		nPDUs := 1 + rng.Intn(3)
		cons := Constraints{
			RackHeadroom: make([]float64, nRacks),
			RackPDU:      make([]int, nRacks),
			PDUSpot:      make([]float64, nPDUs),
		}
		for r := 0; r < nRacks; r++ {
			cons.RackHeadroom[r] = 20 + rng.Float64()*80
			cons.RackPDU[r] = rng.Intn(nPDUs)
		}
		for m := 0; m < nPDUs; m++ {
			cons.PDUSpot[m] = rng.Float64() * 150
		}
		cons.UPSSpot = rng.Float64() * 150 * float64(nPDUs)
		mkt, err := NewMarket(cons, Options{PriceStep: 0.002})
		if err != nil {
			return false
		}
		var bids []Bid
		for r := 0; r < nRacks; r++ {
			if rng.Float64() < 0.3 {
				continue // not every rack bids
			}
			dMin := rng.Float64() * 30
			dMax := dMin + rng.Float64()*60
			qMin := rng.Float64() * 0.2
			qMax := qMin + rng.Float64()*0.5
			bids = append(bids, Bid{Rack: r, Fn: LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}})
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			return false
		}
		if res.RevenueRate < 0 || res.TotalWatts < 0 {
			return false
		}
		if err := mkt.VerifyFeasible(res.Allocations); err != nil {
			return false
		}
		sum := 0.0
		for i, a := range res.Allocations {
			want := bids[i].Fn.Demand(res.Price)
			if hr := cons.RackHeadroom[a.Rack]; want > hr {
				want = hr
			}
			if math.Abs(a.Watts-want) > 1e-9 {
				return false
			}
			sum += a.Watts
		}
		return math.Abs(sum-res.TotalWatts) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: revenue found by the scan is at least the revenue at any other
// feasible scanned price (sanity of the argmax).
func TestQuickClearIsArgmaxOverScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cons := twoPDUConstraints(30+rng.Float64()*100, 30+rng.Float64()*100, 60+rng.Float64()*150)
		step := 0.005
		mkt, err := NewMarket(cons, Options{PriceStep: step})
		if err != nil {
			return false
		}
		var bids []Bid
		for r := 0; r < 6; r++ {
			dMin := rng.Float64() * 20
			dMax := dMin + rng.Float64()*50
			qMin := rng.Float64() * 0.1
			qMax := qMin + 0.05 + rng.Float64()*0.4
			bids = append(bids, Bid{Rack: r, Fn: LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}})
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			return false
		}
		// Exhaustively recheck every scanned price.
		check, err := NewMarket(cons, Options{PriceStep: step})
		if err != nil {
			return false
		}
		hi, sumDMax := 0.0, 0.0
		for _, b := range bids {
			if p := b.Fn.MaxPrice(); p > hi {
				hi = p
			}
			sumDMax += b.Fn.MaxDemand()
		}
		// Clear's scan grid may be offset from this one by up to one step
		// (its origin is the bisected minimum feasible price), so allow one
		// step's worth of revenue slack.
		tol := step*sumDMax/1000 + 1e-9
		for q := 0.0; q <= hi+step; q += step {
			if !check.feasibleAt(bids, q) {
				continue
			}
			watts := check.servedAt(bids, q)
			if q*watts/1000 > res.RevenueRate+tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
