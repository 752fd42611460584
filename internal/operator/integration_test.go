package operator_test

import (
	"fmt"
	"testing"

	"spotdc/internal/capping"
	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/rackpdu"
)

// TestHardwareInTheLoopSlotCycle wires the full per-slot chain the paper's
// testbed exercises physically: the operator reads rack power from
// metered rack PDUs, clears the market, resets each rack PDU's budget to
// guaranteed + granted spot capacity, and tenants' power-capping
// controllers settle under the new budgets. The rack PDUs must never
// observe budget violations once controllers settle, and budget resets
// must be counted.
func TestHardwareInTheLoopSlotCycle(t *testing.T) {
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
	op, err := operator.New(operator.Config{
		Topology:      topo,
		MarketOptions: core.Options{PriceStep: 0.001, Ration: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One metered rack PDU and one capping controller per rack.
	pdus := make([]*rackpdu.PDU, len(topo.Racks))
	ctrls := make([]*capping.Controller, len(topo.Racks))
	models := make([]capping.ServerModel, len(topo.Racks))
	for i, r := range topo.Racks {
		pdus[i], err = rackpdu.New(rackpdu.Config{
			ID: fmt.Sprintf("rpdu-%s", r.ID), BudgetWatts: r.Guaranteed,
		})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = capping.ServerModel{IdleWatts: 55, PeakWatts: r.Guaranteed + r.SpotHeadroom, Alpha: 1.5, MinKnob: 0.2}
		ctrls[i], err = capping.New(capping.Config{Model: models[i], InitialBudget: r.Guaranteed})
		if err != nil {
			t.Fatal(err)
		}
	}
	utils := []float64{0.95, 0.9, 0.85, 0.8} // heavy slot: everyone wants spot

	// Initial settle under guaranteed budgets and feed the rack PDUs.
	for i := range pdus {
		w, _ := ctrls[i].Settle(utils[i], 0.5, 500)
		if err := pdus[i].Feed(0, w); err != nil {
			t.Fatal(err)
		}
	}

	totalRevenue := 0.0
	for slot := 0; slot < 5; slot++ {
		// 1. The operator's routine monitoring: read every rack PDU.
		reading := power.Reading{
			RackWatts:     make([]float64, len(topo.Racks)),
			OtherPDUWatts: []float64{180, 180},
		}
		for i := range pdus {
			reading.RackWatts[i] = pdus[i].ReadTotal()
		}
		// 2. Tenants bid for their full headroom (inelastic for the test).
		bids := make([]core.Bid, len(topo.Racks))
		for i, r := range topo.Racks {
			bids[i] = core.Bid{Rack: i, Tenant: r.Tenant, Fn: core.LinearBid{
				DMax: r.SpotHeadroom, DMin: 5, QMin: 0.05, QMax: 0.3}}
		}
		out, err := op.RunSlot(bids, reading, 2.0/60)
		if err != nil {
			t.Fatal(err)
		}
		totalRevenue += out.RevenueThisSlot
		// 3. Reset rack budgets to guaranteed + grant (the intelligent rack
		// PDU operation of Algorithm 1 step 5) and retarget controllers.
		grants := map[int]float64{}
		for _, a := range out.Result.Allocations {
			grants[a.Rack] = a.Watts
		}
		for i, r := range topo.Racks {
			budget := r.Guaranteed + grants[i]
			if err := pdus[i].SetBudget(budget); err != nil {
				t.Fatal(err)
			}
			if err := ctrls[i].SetBudget(budget); err != nil {
				t.Fatal(err)
			}
			w, _ := ctrls[i].Settle(utils[i], 0.5, 500)
			if err := pdus[i].Feed(0, w); err != nil {
				t.Fatal(err)
			}
			if total := pdus[i].ReadTotal(); total > pdus[i].Budget()+1e-9 {
				t.Errorf("slot %d rack %s: settled draw %v over budget %v", slot, r.ID, total, budget)
			}
		}
	}
	if totalRevenue <= 0 {
		t.Fatal("no revenue across the heavy slots")
	}
	for i, p := range pdus {
		if p.Resets() != 5 {
			t.Errorf("rack %d saw %d budget resets, want 5", i, p.Resets())
		}
	}
	// Granted racks actually drew above their guarantee (the spot capacity
	// was used, not wasted).
	usedSpot := false
	for i, r := range topo.Racks {
		if pdus[i].ReadTotal() > r.Guaranteed+1 {
			usedSpot = true
		}
		_ = r
	}
	if !usedSpot {
		t.Error("no rack used its spot grant")
	}
	// The realized reading stays within every shared capacity.
	final := power.Reading{RackWatts: make([]float64, len(topo.Racks)), OtherPDUWatts: []float64{180, 180}}
	for i := range pdus {
		final.RackWatts[i] = pdus[i].ReadTotal()
	}
	if em := topo.CheckEmergencies(final, 0); em != nil {
		t.Errorf("emergencies after settle: %v", em)
	}
}
