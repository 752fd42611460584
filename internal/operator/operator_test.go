package operator

import (
	"math"
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/power"
)

func testTopo(t *testing.T) *power.Topology {
	t.Helper()
	topo, err := power.NewTopology(1370,
		[]power.PDU{{ID: "PDU#1", Capacity: 715}, {ID: "PDU#2", Capacity: 724}},
		[]power.Rack{
			{ID: "S-1", Tenant: "Search-1", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-1", Tenant: "Count-1", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "S-3", Tenant: "Search-2", PDU: 1, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-4", Tenant: "Sort", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
		})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newOp(t *testing.T) *Operator {
	t.Helper()
	op, err := New(Config{Topology: testTopo(t), MarketOptions: core.Options{PriceStep: 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestPricingValidate(t *testing.T) {
	if err := DefaultPricing().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Pricing{
		{GuaranteedPerKWMonth: 0, InfraLifetimeYears: 1, RackLifetimeYears: 1},
		{GuaranteedPerKWMonth: 100, EnergyPerKWh: -1, InfraLifetimeYears: 1, RackLifetimeYears: 1},
		{GuaranteedPerKWMonth: 100, InfraCapexPerWatt: -1, InfraLifetimeYears: 1, RackLifetimeYears: 1},
		{GuaranteedPerKWMonth: 100, InfraLifetimeYears: 0, RackLifetimeYears: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pricing %d accepted", i)
		}
	}
}

func TestPricingRates(t *testing.T) {
	p := DefaultPricing()
	// $120/kW/month ≈ $0.164/kW·h — the paper's "around US$0.2/kW/hour"
	// amortized guaranteed rate.
	if got := p.GuaranteedPerKWh(); math.Abs(got-120.0/730) > 1e-12 {
		t.Errorf("GuaranteedPerKWh = %v", got)
	}
	if got := p.GuaranteedRevenueRate(2000); math.Abs(got-2*120.0/730) > 1e-12 {
		t.Errorf("GuaranteedRevenueRate = %v", got)
	}
	// The calibrated default capex per watt over 15 years, $/W/h.
	if got := p.InfraAmortRate(1); math.Abs(got-p.InfraCapexPerWatt/(15*8760)) > 1e-15 {
		t.Errorf("InfraAmortRate = %v", got)
	}
	// The rack over-provisioning expense must be negligible relative to
	// revenue, as the paper asserts: $0.4/W over 15 y for 240 W of headroom
	// is micro-dollars per hour.
	if got := p.RackAmortRate(240); got > 1e-3 {
		t.Errorf("RackAmortRate(240) = %v, want negligible", got)
	}
	base := p.BaselineProfitRate(1510, 1370)
	if base <= 0 {
		t.Errorf("baseline profit rate %v should be positive at default pricing", base)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(Config{Topology: testTopo(t), Pricing: Pricing{GuaranteedPerKWMonth: -1, InfraLifetimeYears: 1, RackLifetimeYears: 1}}); err == nil {
		t.Error("bad pricing accepted")
	}
}

func TestPredictSpotMarksBiddingRacks(t *testing.T) {
	op := newOp(t)
	reading := power.Reading{
		RackWatts:     []float64{180, 100, 120, 100}, // rack 0 sprinting above its 145 W guarantee
		OtherPDUWatts: []float64{200, 200},
	}
	plain, err := op.PredictSpot(reading, nil)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := op.PredictSpot(reading, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Marking rack 0 replaces its 180 W reading with its 145 W guarantee,
	// freeing 35 W more spot at PDU#1.
	if diff := marked.PDUWatts[0] - plain.PDUWatts[0]; math.Abs(diff-35) > 1e-9 {
		t.Errorf("marked-unmarked spot difference = %v, want 35", diff)
	}
}

func TestRunSlotBillsAndAccumulates(t *testing.T) {
	op := newOp(t)
	reading := power.Reading{
		RackWatts:     []float64{130, 110, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	bids := []core.Bid{
		{Rack: 0, Tenant: "Search-1", Fn: core.LinearBid{DMax: 50, DMin: 30, QMin: 0.3, QMax: 0.8}},
		{Rack: 1, Tenant: "Count-1", Fn: core.LinearBid{DMax: 60, DMin: 5, QMin: 0.02, QMax: 0.2}},
	}
	out, err := op.RunSlot(bids, reading, 2.0/60) // 2-minute slot
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.TotalWatts <= 0 {
		t.Fatal("nothing sold despite available spot")
	}
	if out.RevenueThisSlot <= 0 {
		t.Error("no revenue billed")
	}
	if math.Abs(op.SpotRevenue()-out.RevenueThisSlot) > 1e-12 {
		t.Errorf("cumulative revenue %v != slot revenue %v", op.SpotRevenue(), out.RevenueThisSlot)
	}
	wantEnergy := out.Result.TotalWatts / 1000 * 2.0 / 60
	if math.Abs(op.SpotEnergyKWh()-wantEnergy) > 1e-12 {
		t.Errorf("energy = %v, want %v", op.SpotEnergyKWh(), wantEnergy)
	}
	if op.Slots() != 1 {
		t.Errorf("slots = %d", op.Slots())
	}
	// Per-tenant payments sum to the slot revenue.
	total := op.PaymentOf("Search-1") + op.PaymentOf("Count-1")
	if math.Abs(total-out.RevenueThisSlot) > 1e-9 {
		t.Errorf("payments %v != revenue %v", total, out.RevenueThisSlot)
	}
	if op.PaymentOf("nobody") != 0 {
		t.Error("unknown tenant has payments")
	}
	if _, err := op.RunSlot(nil, reading, 0); err == nil {
		t.Error("zero slotHours accepted")
	}
}

// TestRunSlotSettlesOneRowPerTenant: a tenant bidding on several racks is
// billed with one payment row for the slot — the sum of its grants at the
// clearing price — anonymous grants share the unattributed row, rows come
// in order of first grant, and the accounts hold exactly those rows.
func TestRunSlotSettlesOneRowPerTenant(t *testing.T) {
	op := newOp(t)
	reading := power.Reading{
		RackWatts:     []float64{130, 110, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	fn := core.LinearBid{DMax: 40, DMin: 5, QMin: 0.02, QMax: 0.5}
	bids := []core.Bid{
		{Rack: 0, Tenant: "Search-1", Fn: fn},
		{Rack: 1, Fn: fn},
		{Rack: 2, Tenant: "Search-1", Fn: fn},
		{Rack: 3, Fn: fn},
	}
	const slotHours = 2.0 / 60
	out, err := op.RunSlot(bids, reading, slotHours)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	var order []string
	grants := 0
	for _, a := range out.Result.Allocations {
		if a.Watts <= 0 {
			continue
		}
		grants++
		if _, seen := want[a.Tenant]; !seen {
			order = append(order, a.Tenant)
		}
		want[a.Tenant] += out.Result.Price * a.Watts / 1000 * slotHours
	}
	if len(order) != 2 || grants != 4 {
		t.Fatalf("fixture granted %d racks to %d payers, want 4 to Search-1 and anonymous: %+v", grants, len(order), out.Result.Allocations)
	}
	rows := op.LastSlotCommit(out, slotHours).Payments
	if len(rows) != len(order) {
		t.Fatalf("commit carries %d payment rows for %d payers: %+v", len(rows), len(order), rows)
	}
	for i, r := range rows {
		if r.Tenant != order[i] || r.Amount != want[r.Tenant] {
			t.Errorf("row %d = %+v, want {%s %v}", i, r, order[i], want[order[i]])
		}
	}
	if op.PaymentOf("Search-1") != want["Search-1"] || op.unattributed.Sum() != want[""] {
		t.Errorf("accounts hold %v / %v, rows %v / %v",
			op.PaymentOf("Search-1"), op.unattributed.Sum(), want["Search-1"], want[""])
	}
	if err := op.ReconcileAccounts(); err != nil {
		t.Error(err)
	}
}

func TestRunSlotRespectsPrediction(t *testing.T) {
	// With a 50% under-prediction factor the operator offers half the spot
	// and sells no more than that.
	topo := testTopo(t)
	op, err := New(Config{
		Topology:      topo,
		MarketOptions: core.Options{PriceStep: 0.001},
		Predict:       power.PredictOptions{UnderPredictionFactor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reading := power.Reading{
		RackWatts:     []float64{130, 110, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	bids := []core.Bid{{Rack: 1, Tenant: "Count-1", Fn: core.LinearBid{DMax: 60, DMin: 5, QMin: 0.02, QMax: 0.2}}}
	out, err := op.RunSlot(bids, reading, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := 715 - (130 + 125 + 180) // rack 1 referenced at its 125 W guarantee
	if math.Abs(out.Spot.PDUWatts[0]-float64(full)/2) > 1e-9 {
		t.Errorf("under-predicted spot = %v, want %v", out.Spot.PDUWatts[0], float64(full)/2)
	}
	if out.Result.TotalWatts > out.Spot.PDUWatts[0]+1e-9 {
		t.Error("sold beyond predicted spot")
	}
}

func TestMaxPerfSlot(t *testing.T) {
	op := newOp(t)
	reading := power.Reading{
		RackWatts:     []float64{130, 110, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	gain := func(w float64) float64 { return 0.001 * w }
	reqs := []core.MaxPerfRequest{
		{Rack: 0, MaxWatts: 50, Gain: gain},
		{Rack: 2, MaxWatts: 50, Gain: gain},
	}
	allocs, spot, err := op.MaxPerfSlot(reqs, reading)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocs = %v", allocs)
	}
	total := allocs[0].Watts + allocs[1].Watts
	if total > spot.UPSWatts+1e-9 {
		t.Error("MaxPerf exceeded UPS spot")
	}
	if allocs[0].Watts <= 0 {
		t.Error("linear gain should receive capacity")
	}
	if op.SpotRevenue() != 0 {
		t.Error("MaxPerf must not bill")
	}
}

func TestObserveEmergencies(t *testing.T) {
	op := newOp(t)
	calm := power.Reading{RackWatts: []float64{100, 100, 100, 100}, OtherPDUWatts: []float64{100, 100}}
	if em := op.ObserveEmergencies(calm, 0); em != nil {
		t.Errorf("calm: %v", em)
	}
	hot := power.Reading{RackWatts: []float64{200, 200, 100, 100}, OtherPDUWatts: []float64{400, 100}}
	if em := op.ObserveEmergencies(hot, 0); len(em) == 0 {
		t.Error("overload not flagged")
	}
	if op.EmergencySlots() != 1 {
		t.Errorf("emergency slots = %d", op.EmergencySlots())
	}
}

func TestProfitReport(t *testing.T) {
	op := newOp(t)
	reading := power.Reading{
		RackWatts:     []float64{130, 110, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	bids := []core.Bid{{Rack: 1, Tenant: "Count-1", Fn: core.LinearBid{DMax: 60, DMin: 5, QMin: 0.02, QMax: 0.2}}}
	for i := 0; i < 10; i++ {
		if _, err := op.RunSlot(bids, reading, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Non-participating tenants lease the rest of the capacity (the test
	// topology only models 4 of the racks); with the full 1510 W leased the
	// baseline margin is the thin-but-positive one of a real colo.
	rep := op.Profit(10, 970)
	if rep.BaselineProfit <= 0 {
		t.Fatalf("baseline profit %v", rep.BaselineProfit)
	}
	if rep.SpotRevenue != op.SpotRevenue() {
		t.Error("report revenue mismatch")
	}
	if rep.ExtraProfitFraction <= 0 {
		t.Errorf("extra profit fraction = %v, want positive", rep.ExtraProfitFraction)
	}
	if rep.RackCapex <= 0 || rep.RackCapex > rep.SpotRevenue {
		t.Errorf("rack capex %v should be positive and small vs revenue %v", rep.RackCapex, rep.SpotRevenue)
	}
}
