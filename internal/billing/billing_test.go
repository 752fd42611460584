package billing

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"spotdc/internal/operator"
	"spotdc/internal/sim"
)

// oneTenant is a finished run of hours with a single tenant's totals.
func oneTenant(name string, hours float64, ts sim.TenantStats) *sim.Result {
	return &sim.Result{
		Slots: int(math.Round(hours * 30)), SlotSeconds: 120,
		Tenants: map[string]*sim.TenantStats{name: &ts},
	}
}

func TestInvoiceArithmetic(t *testing.T) {
	// 30 slots of 2 minutes = 1 hour: draw 130 W, two slots with 30 W spot
	// at $0.2/kWh.
	slotH := 2.0 / 60
	ts := sim.TenantStats{Reserved: 145, GrantSlots: 2}
	ts.GrantFrac.Observe(30.0 / 145)
	for i := 0; i < 30; i++ {
		spot, price := 0.0, 0.0
		if i < 2 {
			spot, price = 30, 0.2
		}
		ts.EnergyKWh += (130 + spot) / 1000 * slotH
		ts.SpotKWh += spot / 1000 * slotH
		ts.Payment += price * spot / 1000 * slotH
	}
	invs, err := FromSimResult(oneTenant("Search-1", 1, ts), operator.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	inv := invs[0]
	if math.Abs(inv.PeriodHours-1) > 1e-9 {
		t.Errorf("period = %v h", inv.PeriodHours)
	}
	if len(inv.Items) != 3 {
		t.Fatalf("items = %d", len(inv.Items))
	}
	p := operator.DefaultPricing()
	wantSub := 0.145 * 1 / operator.HoursPerMonth * p.GuaranteedPerKWMonth
	if math.Abs(inv.Items[0].Amount-wantSub) > 1e-9 {
		t.Errorf("subscription = %v, want %v", inv.Items[0].Amount, wantSub)
	}
	wantEnergy := (0.130*1 + 0.030*2*slotH) * p.EnergyPerKWh
	if math.Abs(inv.Items[1].Amount-wantEnergy) > 1e-9 {
		t.Errorf("energy = %v, want %v", inv.Items[1].Amount, wantEnergy)
	}
	wantSpot := 0.2 * 0.030 * 2 * slotH
	if math.Abs(inv.Items[2].Amount-wantSpot) > 1e-9 {
		t.Errorf("spot = %v, want %v", inv.Items[2].Amount, wantSpot)
	}
	if math.Abs(inv.Total-(wantSub+wantEnergy+wantSpot)) > 1e-9 {
		t.Errorf("total = %v", inv.Total)
	}
	if inv.SpotShare <= 0 || inv.SpotShare > 0.05 {
		t.Errorf("spot share = %v, want small positive", inv.SpotShare)
	}
	// Effective spot rate recovers the clearing price.
	if math.Abs(inv.Items[2].Rate-0.2) > 1e-9 {
		t.Errorf("spot rate = %v, want 0.2", inv.Items[2].Rate)
	}
	if want := "spot capacity (2 slots, peak 30 W)"; inv.Items[2].Description != want {
		t.Errorf("spot item %q, want %q", inv.Items[2].Description, want)
	}
}

func TestInvoicesSortedAndPrintable(t *testing.T) {
	res := oneTenant("zeta", 0.5, sim.TenantStats{Reserved: 100, EnergyKWh: 0.045, SpotKWh: 0.005, Payment: 0.0005})
	res.Tenants["alpha"] = res.Tenants["zeta"]
	invs, err := FromSimResult(res, operator.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 || invs[0].Tenant != "alpha" || invs[1].Tenant != "zeta" {
		t.Fatalf("order: %+v", invs)
	}
	var buf bytes.Buffer
	if err := invs[0].Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"INVOICE  alpha", "guaranteed capacity subscription", "metered energy", "spot capacity", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q:\n%s", want, out)
		}
	}
	// JSON marshals cleanly.
	b, err := json.Marshal(invs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"tenant":"alpha"`) {
		t.Errorf("json: %s", b)
	}
}

func TestFromSimResult(t *testing.T) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 5, Slots: 800})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	pricing := operator.DefaultPricing()
	invs, err := FromSimResult(res, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 8 {
		t.Fatalf("invoices = %d", len(invs))
	}
	totalSpot := 0.0
	for _, inv := range invs {
		if inv.Total <= 0 {
			t.Errorf("%s: zero total", inv.Tenant)
		}
		totalSpot += inv.Items[2].Amount
		// Invoice totals must reconcile with the simulator's own cost
		// accounting (the Fig. 12(a) numbers).
		want, err := sim.TenantCost(res, pricing, inv.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(inv.Total-want) > 1e-6*math.Max(1, want) {
			t.Errorf("%s: invoice %v != sim cost %v", inv.Tenant, inv.Total, want)
		}
	}
	// Sum of spot line items reconciles with operator revenue.
	if math.Abs(totalSpot-res.SpotRevenue) > 1e-9 {
		t.Errorf("spot items %v != operator revenue %v", totalSpot, res.SpotRevenue)
	}
	if _, err := FromSimResult(nil, pricing); !errors.Is(err, ErrBilling) {
		t.Error("nil result accepted")
	}
	bad := operator.Pricing{GuaranteedPerKWMonth: -1, InfraLifetimeYears: 1, RackLifetimeYears: 1}
	if _, err := FromSimResult(res, bad); !errors.Is(err, operator.ErrPricing) {
		t.Errorf("bad pricing: err = %v", err)
	}
}
