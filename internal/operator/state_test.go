package operator

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/power"
	"spotdc/internal/stats"
)

// driveSlot runs one deterministic slot (varying by index) and returns the
// commit record for it.
func driveSlot(t *testing.T, op *Operator, i int, emergencies bool) SlotCommit {
	t.Helper()
	surge := 0.0
	if emergencies && i%7 == 3 {
		surge = 400 // push PDU#1 over its 715 W capacity
	}
	reading := power.Reading{
		RackWatts:     []float64{130 + float64(i%5) + surge, 110, 120 + float64(i%3), 105},
		OtherPDUWatts: []float64{180, 190},
	}
	bids := []core.Bid{
		{Rack: 0, Tenant: "Search-1", Fn: core.LinearBid{DMax: 50, DMin: 30, QMin: 0.3, QMax: 0.8}},
		{Rack: 1, Tenant: "Count-1", Fn: core.LinearBid{DMax: 60, DMin: 5, QMin: 0.02, QMax: 0.2}},
		{Rack: 2, Fn: core.LinearBid{DMax: 40, DMin: 10, QMin: 0.05, QMax: 0.3}}, // anonymous
	}
	const slotHours = 2.0 / 60
	out, err := op.RunSlot(bids, reading, slotHours)
	if err != nil {
		t.Fatalf("slot %d: %v", i, err)
	}
	if emergencies {
		op.ObserveEmergencies(reading, 0.01)
	}
	return op.LastSlotCommit(out, slotHours)
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	a := newOp(t)
	for i := 0; i < 12; i++ {
		driveSlot(t, a, i, false)
	}
	cp := a.Checkpoint()

	b := newOp(t)
	if err := b.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b.Slots() != a.Slots() || b.SpotRevenue() != a.SpotRevenue() ||
		b.SpotEnergyKWh() != a.SpotEnergyKWh() ||
		b.PaymentOf("Search-1") != a.PaymentOf("Search-1") ||
		b.unattributed.Sum() != a.unattributed.Sum() {
		t.Fatal("restored accessors differ from source")
	}
	if !reflect.DeepEqual(b.Checkpoint(), cp) {
		t.Fatal("re-checkpoint differs from source checkpoint")
	}
	if !reflect.DeepEqual(b.lastSpot, a.lastSpot) {
		t.Fatal("restored last spot differs")
	}
	// Both must continue identically: compensated accumulators carried their
	// compensation terms across the restore.
	for i := 12; i < 20; i++ {
		ca := driveSlot(t, a, i, false)
		cb := driveSlot(t, b, i, false)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("slot %d commits diverge after restore", i)
		}
	}
	if a.SpotRevenue() != b.SpotRevenue() || a.PaymentOf("Count-1") != b.PaymentOf("Count-1") {
		t.Fatal("books diverged after post-restore slots")
	}
}

func TestSlotCommitReplayBitIdentical(t *testing.T) {
	a := newOp(t)
	b := newOp(t)
	var mid Checkpoint
	for i := 0; i < 16; i++ {
		c := driveSlot(t, a, i, false)
		if i == 7 {
			mid = a.Checkpoint()
		}
		if i > 7 {
			// Round-trip the commit through its binary encoding, as the
			// WAL stores it.
			data, err := c.AppendBinary(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var decoded SlotCommit
			if err := decoded.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if i == 8 {
				if err := b.Restore(mid); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.ApplySlotCommit(decoded); err != nil {
				t.Fatalf("ApplySlotCommit slot %d: %v", i, err)
			}
		}
	}
	if !reflect.DeepEqual(a.Checkpoint(), b.Checkpoint()) {
		t.Fatal("replayed checkpoint differs from live run")
	}
	if a.SpotRevenue() != b.SpotRevenue() || a.SpotEnergyKWh() != b.SpotEnergyKWh() {
		t.Fatalf("replayed sums not bit-identical: %v vs %v", a.SpotRevenue(), b.SpotRevenue())
	}
	if err := b.ReconcileAccounts(); err != nil {
		t.Fatal(err)
	}
}

func newDurableEmergencyOp(t *testing.T) *Operator {
	t.Helper()
	op, err := New(Config{
		Topology:      testTopo(t),
		MarketOptions: core.Options{PriceStep: 0.001},
		Emergency:     &ResponderConfig{RecoverySlots: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestCheckpointRestoreCarriesResponderState(t *testing.T) {
	a := newDurableEmergencyOp(t)
	var mid Checkpoint
	for i := 0; i < 11; i++ {
		driveSlot(t, a, i, true)
		if i == 4 {
			// Slot 3 overloaded PDU#1: the checkpoint lands mid-suspension,
			// with a partially advanced calm counter.
			mid = a.Checkpoint()
		}
	}
	if mid.Responder == nil || !mid.Responder.SuspendedPDU[0] {
		t.Fatalf("checkpoint at slot 4 should capture an active PDU suspension: %+v", mid.Responder)
	}

	b := newDurableEmergencyOp(t)
	if err := b.Restore(mid); err != nil {
		t.Fatal(err)
	}
	// Fresh continuation from slot 5 must match the uninterrupted run —
	// including the recovery clock and reclaim totals.
	c := newDurableEmergencyOp(t)
	if err := c.Restore(mid); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 11; i++ {
		driveSlot(t, c, i, true)
	}
	if !reflect.DeepEqual(a.Checkpoint(), c.Checkpoint()) {
		t.Fatal("responder run restored mid-suspension diverged from uninterrupted run")
	}
	if a.EmergenciesActed() != c.EmergenciesActed() || a.ReclaimedWatts() != c.ReclaimedWatts() {
		t.Fatal("reclaim totals diverged")
	}
}

func TestRestoreValidation(t *testing.T) {
	plain := newOp(t)
	em := newDurableEmergencyOp(t)

	cp := em.Checkpoint()
	if err := plain.Restore(cp); err == nil {
		t.Error("responder checkpoint accepted by responder-less operator")
	}
	bad := plain.Checkpoint()
	bad.LastSpotPDU = []float64{1, 2, 3}
	if err := plain.Restore(bad); err == nil {
		t.Error("mis-sized spot accepted")
	}
	rbad := em.Checkpoint()
	rbad.Responder.CalmPDU = nil
	if err := em.Restore(rbad); err == nil {
		t.Error("mis-sized responder arrays accepted")
	}
	// A responder-less checkpoint resets an enabled responder to fresh.
	driveSlot(t, em, 3, true) // suspend PDU#1
	if pdus, _ := em.AppliedSuspensions(); len(pdus) == 0 {
		driveSlot(t, em, 10, true) // ensure the suspension is applied at least once
	}
	if err := em.Restore(plain.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := em.Checkpoint().Responder; got.SuspendedPDU[0] || got.Acted != 0 {
		t.Errorf("responder not reset by responder-less checkpoint: %+v", got)
	}
}

// TestReconcileRefusesNudgedPayment: books restored from a checkpoint in
// which one tenant's account was nudged by a cent no longer add up to the
// spot revenue, and ReconcileAccounts says so by name.
func TestReconcileRefusesNudgedPayment(t *testing.T) {
	a := newOp(t)
	for i := 0; i < 6; i++ {
		driveSlot(t, a, i, false)
	}
	if err := a.ReconcileAccounts(); err != nil {
		t.Fatalf("honest books: %v", err)
	}
	cp := a.Checkpoint()
	if len(cp.Payments) == 0 {
		t.Fatal("fixture billed no tenant")
	}
	cp.Payments[0].Paid.Sum += 0.01
	b := newOp(t)
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := b.ReconcileAccounts(); !errors.Is(err, ErrUnreconciled) {
		t.Fatalf("nudged %s account: err = %v, want ErrUnreconciled", cp.Payments[0].Tenant, err)
	}
}

func TestNeumaierStateJSONBitExact(t *testing.T) {
	// The checkpoint contract leans on encoding/json round-tripping float64
	// exactly; pin that with values whose compensation terms are non-trivial.
	var acc stats.Neumaier
	for i := 0; i < 1000; i++ {
		acc.Add(1e16)
		acc.Add(math.Pi * float64(i))
		acc.Add(-1e16)
	}
	st := ExportNeumaier(acc)
	if st.Comp == 0 {
		t.Fatal("test sequence produced no compensation term")
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back NeumaierState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("JSON round-trip changed state: %+v vs %+v", back, st)
	}
	restored := back.Restore()
	if restored.Sum() != acc.Sum() {
		t.Fatalf("restored sum %v != original %v", restored.Sum(), acc.Sum())
	}
	// Continued accumulation stays bit-identical too.
	restored.Add(0.1)
	acc.Add(0.1)
	if restored.Sum() != acc.Sum() {
		t.Fatal("post-restore accumulation diverged")
	}
}
