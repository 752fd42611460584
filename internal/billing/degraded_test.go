package billing

import (
	"errors"
	"math"
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
)

// TestDegradedSlotBillsNoSpot is the regression for the degraded-slot
// billing leak: a slot that fails to clear (poisoned telemetry here) must
// add nothing to any tenant's spot account — the no-spot default means
// nobody got capacity, so nobody is billed — and the accounts must still
// reconcile with the operator's spot revenue to the dollar. The leak this
// guards against billed degraded slots at the previous slot's price and
// grants.
func TestDegradedSlotBillsNoSpot(t *testing.T) {
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
	op, err := operator.New(operator.Config{Topology: topo, MarketOptions: core.Options{PriceStep: 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	billed := func() float64 {
		cp := op.Checkpoint()
		total := cp.Unattributed.Restore().Sum()
		for _, r := range topo.Racks {
			total += op.PaymentOf(r.Tenant)
		}
		return total
	}

	bids := func() []core.Bid {
		return []core.Bid{
			{Rack: 0, Tenant: "Search-1", Fn: core.LinearBid{DMax: 50, DMin: 10, QMin: 0.02, QMax: 0.2}},
			{Rack: 2, Tenant: "Search-2", Fn: core.LinearBid{DMax: 40, DMin: 5, QMin: 0.03, QMax: 0.25}},
		}
	}
	reading := func(poisoned bool) power.Reading {
		rd := power.Reading{
			RackWatts:     make([]float64, len(topo.Racks)),
			OtherPDUWatts: []float64{180, 180},
		}
		for i, r := range topo.Racks {
			rd.RackWatts[i] = 0.75 * r.Guaranteed
		}
		if poisoned {
			rd.RackWatts[0] = math.NaN()
		}
		return rd
	}

	const slotHours = 1.0 / 12
	degraded := 0
	var prior operator.SlotCommit // the slot before the degraded one
	for slot := 0; slot < 10; slot++ {
		before := billed()
		out, err := op.RunSlot(bids(), reading(slot == 4), slotHours)
		if err != nil {
			// Degraded slot: the market loop falls back to the no-spot
			// default (Section III-C). There are NO spot grants and NO spot
			// charges — the leak billed this slot at the previous
			// price/grants.
			degraded++
			if after := billed(); after != before {
				t.Errorf("degraded slot %d billed $%v of spot", slot, after-before)
			}
			continue
		}
		if slot == 3 {
			prior = op.LastSlotCommit(out, slotHours)
			prior.Payments = append([]operator.PaymentDelta(nil), prior.Payments...)
		}
	}
	if degraded != 1 {
		t.Fatalf("degraded slots = %d, want exactly 1 (the poisoned reading)", degraded)
	}

	// Every dollar in a tenant's spot account was earned by the operator in
	// some cleared slot; the degraded slot contributed none.
	earned := op.SpotRevenue()
	if earned <= 0 {
		t.Fatal("test premise broken: no spot revenue in cleared slots")
	}
	if d := math.Abs(billed() - earned); d > 1e-9*(1+earned) {
		t.Errorf("accounts spot $%v vs operator spot $%v (Δ %g)", billed(), earned, d)
	}
	if err := op.ReconcileAccounts(); err != nil {
		t.Error(err)
	}

	// Teeth: re-billing the degraded slot at the prior slot's price and
	// grants (the bug) — payments with no revenue behind them — must break
	// reconciliation, proving the check above detects it.
	if len(prior.Payments) == 0 {
		t.Fatal("test premise broken: the slot before the degraded one sold nothing")
	}
	cp := op.Checkpoint()
	leak := operator.SlotCommit{
		Payments: prior.Payments,
		Slots:    op.Slots(), EmergencySlots: op.EmergencySlots(),
		SpotPDU: cp.LastSpotPDU, SpotUPS: cp.LastSpotUPS,
	}
	if err := op.ApplySlotCommit(leak); err != nil {
		t.Fatal(err)
	}
	if err := op.ReconcileAccounts(); !errors.Is(err, operator.ErrUnreconciled) {
		t.Errorf("reconciliation failed to detect a degraded-slot billing leak: err = %v", err)
	}
}
