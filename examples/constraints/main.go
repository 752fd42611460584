// Constraints demonstrates the Section III-A practical constraints beyond
// the rack/PDU/UPS hierarchy: heat density (a hot aisle whose racks must
// not jointly exceed a cooling limit) and three-phase balance. Both can
// reshape who gets spot capacity even when raw PDU headroom is plentiful.
//
//	go run ./examples/constraints
package main

import (
	"fmt"
	"log"

	"spotdc"
)

func main() {
	cons := spotdc.Constraints{
		RackHeadroom: []float64{60, 60, 60, 60, 60, 60},
		RackPDU:      []int{0, 0, 0, 1, 1, 1},
		PDUSpot:      []float64{200, 200},
		UPSSpot:      400,
	}
	bids := []spotdc.Bid{
		{Rack: 0, Tenant: "a", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Tenant: "b", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
		{Rack: 2, Tenant: "c", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
		{Rack: 3, Tenant: "d", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
		{Rack: 4, Tenant: "e", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
		{Rack: 5, Tenant: "f", Fn: spotdc.LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.4}},
	}

	run := func(label string, extras *spotdc.Extras) {
		mkt, err := spotdc.NewMarket(cons, spotdc.MarketOptions{PriceStep: 0.001})
		if err != nil {
			log.Fatal(err)
		}
		if extras != nil {
			if err := mkt.SetExtras(extras); err != nil {
				log.Fatal(err)
			}
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s price $%.3f/kWh, sold %5.1f W, grants:", label, res.Price, res.TotalWatts)
		for _, a := range res.Allocations {
			fmt.Printf(" %s=%.0fW", a.Tenant, a.Watts)
		}
		fmt.Println()
	}

	run("unconstrained", nil)

	// Racks 0-2 share a hot aisle with only 80 W of cooling headroom: the
	// market must price their joint demand down to the cooling limit.
	run("hot aisle (80 W over a,b,c)", &spotdc.Extras{
		Zones: []spotdc.Zone{{Name: "aisle-1", Racks: []int{0, 1, 2}, MaxWatts: 80}},
	})

	// Every bidding rack on PDU#2 hangs off phase 0: the balance constraint
	// refuses allocations that would skew the three-phase feed.
	run("phases skewed on PDU#2", &spotdc.Extras{
		RackPhase: spotdc.PhaseOf{0, 1, 2, 0, 0, 0},
	})

	// Same racks re-cabled across phases: full allocation returns.
	run("phases balanced", &spotdc.Extras{
		RackPhase: spotdc.PhaseOf{0, 1, 2, 0, 1, 2},
	})
}
