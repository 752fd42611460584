package proto

import (
	"fmt"
	"testing"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
)

func TestSlotClock(t *testing.T) {
	epoch := time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)
	c, err := NewSlotClock(epoch, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSlotClock(epoch, 0); err == nil {
		t.Error("zero slot length accepted")
	}
	if c.SlotLen() != 2*time.Minute {
		t.Errorf("SlotLen = %v", c.SlotLen())
	}
	if got := c.StartOf(3); !got.Equal(epoch.Add(6 * time.Minute)) {
		t.Errorf("StartOf(3) = %v", got)
	}
}

func loopFixture(t *testing.T) (*Server, *operator.Operator, *power.Topology) {
	t.Helper()
	topo, err := power.NewTopology(1370,
		[]power.PDU{{ID: "PDU#1", Capacity: 715}},
		[]power.Rack{
			{ID: "S-1", Tenant: "sprint", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-1", Tenant: "opp", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
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
	srv, err := NewServer("127.0.0.1:0", func(id string) (int, bool) { return topo.RackByID(id) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, op, topo
}

func TestMarketLoopValidation(t *testing.T) {
	srv, op, topo := loopFixture(t)
	clock, err := NewSlotClock(time.Now(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	full := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading: func(int) power.Reading {
			return power.Reading{RackWatts: []float64{120, 100}, OtherPDUWatts: []float64{180}}
		},
		RackID: func(r int) string { return topo.Racks[r].ID },
	}
	broken := []func(*MarketLoop){
		func(l *MarketLoop) { l.Server = nil },
		func(l *MarketLoop) { l.Operator = nil },
		func(l *MarketLoop) { l.Clock = nil },
		func(l *MarketLoop) { l.Reading = nil },
		func(l *MarketLoop) { l.RackID = nil },
	}
	for i, b := range broken {
		l := full
		b(&l)
		if _, err := l.RunSlots(0, 1); err == nil {
			t.Errorf("broken loop %d accepted", i)
		}
	}
	if _, err := full.RunSlots(0, 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestMarketLoopEndToEnd(t *testing.T) {
	srv, op, topo := loopFixture(t)
	// Millisecond-scale slots so the test runs fast; the epoch is slightly
	// in the future so slot 0's bids beat the deadline.
	clock, err := NewSlotClock(time.Now().Add(150*time.Millisecond), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	type slotRec struct {
		bids  int
		sold  float64
		price float64
	}
	recs := make(chan slotRec, 16)
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading: func(int) power.Reading {
			return power.Reading{RackWatts: []float64{120, 100}, OtherPDUWatts: []float64{180}}
		},
		RackID: func(r int) string { return topo.Racks[r].ID },
		OnSlot: func(slot int, out operator.SlotOutcome, bids int) {
			recs <- slotRec{bids: bids, sold: out.Result.TotalWatts, price: out.Result.Price}
		},
	}

	client, err := Dial(srv.Addr(), "opp", []string{"O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Submit bids for the first three slots ahead of their deadlines.
	for slot := 0; slot < 3; slot++ {
		if err := client.SubmitBids(slot, []RackBid{
			{Rack: "O-1", DMax: 60, QMin: 0.02, DMin: 6, QMax: 0.16},
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := loop.RunSlots(0, 3)
		done <- err
	}()

	for slot := 0; slot < 3; slot++ {
		price, grants, err := client.AwaitPrice(slot, 2*time.Second)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if price <= 0 {
			t.Errorf("slot %d price = %v", slot, price)
		}
		total := 0.0
		for _, g := range grants {
			total += g.Watts
		}
		if total <= 0 {
			t.Errorf("slot %d granted nothing", slot)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(recs)
	n := 0
	for r := range recs {
		n++
		if r.bids != 1 || r.sold <= 0 {
			t.Errorf("slot record: %+v", r)
		}
	}
	if n != 3 {
		t.Errorf("OnSlot fired %d times, want 3", n)
	}
	if op.SpotRevenue() <= 0 {
		t.Error("loop earned nothing")
	}
}

// Twenty concurrent tenants hammer a fast market loop; run under -race
// this exercises the server's locking end to end.
func TestMarketLoopManyTenantsStress(t *testing.T) {
	topoRacks := make([]power.Rack, 20)
	for i := range topoRacks {
		topoRacks[i] = power.Rack{
			ID: fmt.Sprintf("r%d", i), Tenant: fmt.Sprintf("t%d", i),
			PDU: i / 10, Guaranteed: 125, SpotHeadroom: 60,
		}
	}
	topo, err := power.NewTopology(7000,
		[]power.PDU{{ID: "P1", Capacity: 3500}, {ID: "P2", Capacity: 3500}}, topoRacks)
	if err != nil {
		t.Fatal(err)
	}
	op, err := operator.New(operator.Config{
		Topology:      topo,
		MarketOptions: core.Options{PriceStep: 0.002, Ration: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", func(id string) (int, bool) { return topo.RackByID(id) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clock, err := NewSlotClock(time.Now().Add(300*time.Millisecond), 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reading := power.Reading{RackWatts: make([]float64, 20), OtherPDUWatts: []float64{500, 500}}
	for i := range reading.RackWatts {
		reading.RackWatts[i] = 100
	}
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  func(int) power.Reading { return reading },
		RackID:   func(r int) string { return topo.Racks[r].ID },
	}
	const slots = 4
	done := make(chan error, 1)
	go func() {
		_, err := loop.RunSlots(0, slots)
		done <- err
	}()

	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			rack := fmt.Sprintf("r%d", i)
			c, err := Dial(srv.Addr(), fmt.Sprintf("t%d", i), []string{rack})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for slot := 0; slot < slots; slot++ {
				if err := c.SubmitBids(slot, []RackBid{{Rack: rack, DMax: 40, QMin: 0.02, DMin: 4, QMax: 0.16}}); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.AwaitPrice(slot, 3*time.Second); err != nil {
					errs <- fmt.Errorf("tenant %d slot %d: %w", i, slot, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if op.SpotRevenue() <= 0 {
		t.Error("stress loop earned nothing")
	}
}
