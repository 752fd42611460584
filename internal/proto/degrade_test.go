package proto

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"spotdc/internal/power"
)

// degradeFixture builds a loop whose reading is poisoned (NaN) for the
// slots in bad, forcing Operator.RunSlot to fail there.
func degradeFixture(t *testing.T, bad map[int]bool) (*MarketLoop, *Server) {
	t.Helper()
	srv, op, topo := loopFixture(t)
	clock, err := NewSlotClock(time.Now().Add(100*time.Millisecond), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	good := power.Reading{RackWatts: []float64{120, 100}, OtherPDUWatts: []float64{180}}
	poison := power.Reading{RackWatts: []float64{math.NaN(), 100}, OtherPDUWatts: []float64{180}}
	loop := &MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading: func(slot int) power.Reading {
			if bad[slot] {
				return poison
			}
			return good
		},
		RackID: func(r int) string { return topo.Racks[r].ID },
	}
	return loop, srv
}

func TestRunSlotsDegradesInsteadOfAborting(t *testing.T) {
	loop, srv := degradeFixture(t, map[int]bool{1: true, 2: true})
	var mu sync.Mutex
	var slotErrs []int
	loop.OnSlotError = func(slot int, err error) {
		mu.Lock()
		slotErrs = append(slotErrs, slot)
		mu.Unlock()
		if err == nil {
			t.Error("OnSlotError with nil error")
		}
	}

	client, err := Dial(srv.Addr(), "opp", []string{"O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for slot := 0; slot < 5; slot++ {
		if err := client.SubmitBids(slot, []RackBid{
			{Rack: "O-1", DMax: 60, QMin: 0.02, DMin: 6, QMax: 0.16},
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var cleared int
	var runErr error
	go func() {
		cleared, runErr = loop.RunSlots(0, 5)
		close(done)
	}()

	// Every slot gets a broadcast: real prices on good slots, an explicit
	// zero-price no-grant broadcast on degraded ones (the Section III-C
	// no-spot default).
	for slot := 0; slot < 5; slot++ {
		price, grants, err := client.AwaitPrice(slot, 2*time.Second)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if slot == 1 || slot == 2 {
			if price != 0 || len(grants) != 0 {
				t.Errorf("degraded slot %d: price %v grants %v, want zero/none", slot, price, grants)
			}
		} else if price <= 0 {
			t.Errorf("good slot %d: price %v", slot, price)
		}
	}
	<-done
	if runErr != nil {
		t.Fatalf("RunSlots errored instead of degrading: %v", runErr)
	}
	if cleared != 3 {
		t.Errorf("cleared = %d, want 3", cleared)
	}
	if loop.SlotErrors() != 2 {
		t.Errorf("SlotErrors = %d, want 2", loop.SlotErrors())
	}
	if loop.BreakerTripped() {
		t.Error("breaker tripped without being configured")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slotErrs) != 2 || slotErrs[0] != 1 || slotErrs[1] != 2 {
		t.Errorf("OnSlotError slots = %v, want [1 2]", slotErrs)
	}
}

func TestBreakerTripsToPowerCapped(t *testing.T) {
	bad := map[int]bool{}
	for s := 0; s < 6; s++ {
		bad[s] = true
	}
	loop, _ := degradeFixture(t, bad)
	loop.MaxConsecutiveFailures = 2
	var breakerSlots int
	loop.OnSlotError = func(slot int, err error) {
		if errors.Is(err, ErrBreakerOpen) {
			breakerSlots++
		}
	}
	cleared, err := loop.RunSlots(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cleared != 0 {
		t.Errorf("cleared = %d, want 0", cleared)
	}
	if loop.SlotErrors() != 6 {
		t.Errorf("SlotErrors = %d, want 6", loop.SlotErrors())
	}
	if !loop.BreakerTripped() {
		t.Error("breaker not tripped after consecutive failures")
	}
	// Slots 0,1 fail on the reading; slots 2..5 are skipped by the open
	// breaker without touching the operator.
	if breakerSlots != 4 {
		t.Errorf("breaker-open slots = %d, want 4", breakerSlots)
	}
	if got := loop.Operator.Slots(); got != 0 {
		t.Errorf("operator ran %d slots while everything failed", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	// Failures on slots 0..2 trip the breaker (max 2); cooldown 1 lets a
	// probe slot retry, which succeeds once the readings recover.
	loop, _ := degradeFixture(t, map[int]bool{0: true, 1: true, 2: true})
	loop.MaxConsecutiveFailures = 2
	loop.BreakerCooldownSlots = 1
	cleared, err := loop.RunSlots(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 fails, slot 1 fails → trip. Slot 2 cools down (breaker
	// open). Slot 3 probes: reading is good again → clears, breaker
	// closes. Slots 4,5 clear normally.
	if cleared != 3 {
		t.Errorf("cleared = %d, want 3 (probe + 2 normal)", cleared)
	}
	if loop.SlotErrors() != 3 {
		t.Errorf("SlotErrors = %d, want 3", loop.SlotErrors())
	}
	if loop.BreakerTripped() {
		t.Error("breaker still open after successful probe")
	}
}

func TestValidateRejectsNegativeBreakerConfig(t *testing.T) {
	loop, _ := degradeFixture(t, nil)
	loop.MaxConsecutiveFailures = -1
	if _, err := loop.RunSlots(0, 1); err == nil {
		t.Error("negative MaxConsecutiveFailures accepted")
	}
	loop.MaxConsecutiveFailures = 0
	loop.BreakerCooldownSlots = -1
	if _, err := loop.RunSlots(0, 1); err == nil {
		t.Error("negative BreakerCooldownSlots accepted")
	}
}

// TestDegradedSlotStillAdvancesBidWindow: bids keep flowing after degraded
// slots because TakeBids runs (pruning + advancing) even when clearing
// fails.
func TestDegradedSlotStillAdvancesBidWindow(t *testing.T) {
	loop, srv := degradeFixture(t, map[int]bool{0: true, 1: true})
	client, err := Dial(srv.Addr(), "opp", []string{"O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for slot := 0; slot < 4; slot++ {
		if err := client.SubmitBids(slot, []RackBid{
			{Rack: "O-1", DMax: 60, QMin: 0.02, DMin: 6, QMax: 0.16},
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		_, _ = loop.RunSlots(0, 4)
		close(done)
	}()
	price, _, err := client.AwaitPrice(3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if price <= 0 {
		t.Errorf("slot 3 price = %v after degraded slots", price)
	}
	<-done
	if n := pendingBidSlots(srv); n != 0 {
		t.Errorf("degraded run left %d buffered bid slots", n)
	}
}
