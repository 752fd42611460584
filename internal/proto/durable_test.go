package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/wal"
)

func durableReading(slot int) power.Reading {
	return power.Reading{
		RackWatts:     []float64{120 + float64(slot%4), 100},
		OtherPDUWatts: []float64{180},
	}
}

// runDurableSlots drives the loop over [from, from+n) with a WAL in dir,
// returning the loop (for error inspection) and the operator.
func runDurableSlots(t *testing.T, dir string, op *operator.Operator, srv *Server, topo *power.Topology, from, n, snapshotEvery int) *wal.Log {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDurable(rec, op, srv); err != nil {
		t.Fatal(err)
	}
	clock, err := NewSlotClock(time.Now().Add(20*time.Millisecond).Add(-time.Duration(from)*5*time.Millisecond), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  durableReading,
		RackID:   func(r int) string { return topo.Racks[r].ID },
		Durable:  &Durable{Log: log, SnapshotEvery: snapshotEvery},
	}
	if _, err := loop.RunSlots(from, n); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestDurableRecoveryResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference run: 30 slots in one process.
	srvA, opA, topo := loopFixture(t)
	logA := runDurableSlots(t, t.TempDir(), opA, srvA, topo, 0, 30, 8)
	logA.Close()

	// Interrupted run: 12 slots, abrupt kill, recover, 18 more.
	srvB, opB, _ := loopFixture(t)
	logB := runDurableSlots(t, dir, opB, srvB, topo, 0, 12, 8)
	logB.Kill()

	srvC, opC, _ := loopFixture(t)
	logC, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverDurable(rec, opC, srvC)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NextSlot != 12 {
		t.Fatalf("NextSlot = %d, want 12", recovered.NextSlot)
	}
	if opC.Slots() != 12 || opC.SpotRevenue() != opB.SpotRevenue() {
		t.Fatalf("recovered books differ: slots=%d revenue %v vs %v", opC.Slots(), opC.SpotRevenue(), opB.SpotRevenue())
	}
	if pos, ok := srvC.MarketPosition(); !ok || pos != 11 {
		t.Fatalf("server position = %d/%v, want 11/true", pos, ok)
	}
	logC.Close()

	srvD, opD, _ := loopFixture(t)
	logD := runDurableSlots(t, dir, opD, srvD, topo, 12, 18, 8)
	logD.Close()

	if !reflect.DeepEqual(opA.Checkpoint(), opD.Checkpoint()) {
		t.Fatal("restarted run's final checkpoint differs from uninterrupted run")
	}
	if opA.SpotRevenue() != opD.SpotRevenue() || opA.SpotEnergyKWh() != opD.SpotEnergyKWh() {
		t.Fatal("restarted books not bit-identical")
	}
}

func TestDurableSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	srv, op, topo := loopFixture(t)
	log := runDurableSlots(t, dir, op, srv, topo, 0, 25, 10)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil {
		t.Fatal("no snapshot after 25 slots with SnapshotEvery=10")
	}
	// Snapshot at slot 19 (after 20 commits): at most 5 slot records replay.
	if len(rec.Records) >= 25 {
		t.Fatalf("%d records to replay; snapshot did not bound the log", len(rec.Records))
	}
	op2, err := operator.New(operator.Config{Topology: topo, MarketOptions: op.MarketOptions()})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverDurable(rec, op2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.HadSnapshot || recovered.NextSlot != 25 {
		t.Fatalf("recovered = %+v, want snapshot-anchored NextSlot 25", recovered)
	}
	if op2.SpotRevenue() != op.SpotRevenue() || op2.Slots() != 25 {
		t.Fatal("snapshot+replay books differ from live run")
	}
}

func TestStopChannelEndsAtBoundary(t *testing.T) {
	srv, op, topo := loopFixture(t)
	clock, err := NewSlotClock(time.Now().Add(20*time.Millisecond), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  durableReading,
		RackID:   func(r int) string { return topo.Racks[r].ID },
		Stop:     stop,
		OnSlot: func(slot int, _ operator.SlotOutcome, _ int) {
			if slot == 2 {
				close(stop)
			}
		},
	}
	cleared, err := loop.RunSlots(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cleared != 3 {
		t.Fatalf("cleared %d slots, want 3 (stop after slot 2)", cleared)
	}
	if op.Slots() != 3 {
		t.Fatalf("operator ran %d slots after stop", op.Slots())
	}
}

// errBarrierRefused is the BeforeBids refusal TestBeforeBidsRefusalLeavesNoSlot
// injects.
var errBarrierRefused = errors.New("bid barrier refused the slot")

// TestBeforeBidsRefusalLeavesNoSlot pins the barrier contract: a BeforeBids
// error at slot N ends RunSlots with that error before slot N is drained,
// cleared, committed or journaled, so the journal holds slots 0..N-1, the
// WAL recovers to N, and the next lifetime runs slot N from scratch.
func TestBeforeBidsRefusalLeavesNoSlot(t *testing.T) {
	const refused = 6
	dir := t.TempDir()
	srv, op, topo := loopFixture(t)
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewSlotClock(time.Now().Add(10*time.Millisecond), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	loop := MarketLoop{
		Server:   srv,
		Operator: op,
		Clock:    clock,
		Reading:  durableReading,
		RackID:   func(r int) string { return topo.Racks[r].ID },
		Journal:  metrics.NewJournal(&journal),
		Durable:  &Durable{Log: log},
		BeforeBids: func(slot int) error {
			if slot == refused {
				return errBarrierRefused
			}
			return nil
		},
	}
	cleared, err := loop.RunSlots(0, 3*refused)
	if !errors.Is(err, errBarrierRefused) {
		t.Fatalf("RunSlots error = %v, want the barrier's refusal", err)
	}
	if cleared != refused || op.Slots() != refused {
		t.Fatalf("cleared %d, operator ran %d slots; want %d each", cleared, op.Slots(), refused)
	}
	if pos, ok := srv.MarketPosition(); !ok || pos != refused-1 {
		t.Fatalf("server drained through slot %d/%v, want %d: the refused slot's bids were taken", pos, ok, refused-1)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, events, err := metrics.ReadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != refused || events[len(events)-1].Slot != refused-1 {
		t.Fatalf("journal holds %d events, want slots 0..%d", len(events), refused-1)
	}
	reopened, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	op2, err := operator.New(operator.Config{Topology: topo, MarketOptions: op.MarketOptions()})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := RecoverDurable(rec, op2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.NextSlot != refused {
		t.Fatalf("WAL recovers to slot %d, want %d", recovered.NextSlot, refused)
	}
}
