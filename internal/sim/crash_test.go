package sim

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spotdc/internal/audit"
	"spotdc/internal/metrics"
	"spotdc/internal/proto"
	"spotdc/internal/wal"
)

func TestCrashRunValidation(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 1, Slots: 5})
	if _, err := CrashNetRun(sc, NetRunOptions{}, CrashRunOptions{}); err == nil {
		t.Error("missing StateDir accepted")
	}
	dir := t.TempDir()
	if _, err := CrashNetRun(sc, NetRunOptions{
		BidFaults: proto.FaultPlan{Seed: 1, DropProb: 0.5},
	}, CrashRunOptions{StateDir: dir}); err == nil {
		t.Error("fault plan accepted (injector schedules cannot resume)")
	}
	if _, err := CrashNetRun(sc, NetRunOptions{}, CrashRunOptions{
		StateDir: dir,
		Kills:    []CrashKill{{AfterSlot: 3}, {AfterSlot: 3}},
	}); err == nil {
		t.Error("non-increasing kill slots accepted")
	}
	if _, err := CrashNetRun(sc, NetRunOptions{}, CrashRunOptions{
		StateDir: dir,
		Kills:    []CrashKill{{AfterSlot: 4}},
	}); err == nil {
		t.Error("kill at the final slot accepted (nothing left to recover)")
	}
}

// crashJournal reads and normalizes a crash run's journal for cross-run
// comparison: wall-clock stamps are the only legitimately run-dependent
// fields. Bid and grant order is NOT normalized — TakeBids drains in
// canonical rack order, so the raw journal must already match.
func crashJournal(t *testing.T, path string) (*metrics.JournalHeader, []metrics.SlotEvent) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, events, torn, err := metrics.ReadJournalInfo(f)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatalf("%s: torn final line (kills stop at slot boundaries; the journal must be whole)", path)
	}
	for i := range events {
		events[i].UnixMicros = 0
		events[i].ClearMicros = 0
	}
	return hdr, events
}

// TestCrashSmokeBitIdenticalRecovery is the crash-injection acceptance
// smoke (make smoke-crash): the seeded 220-slot networked testbed run —
// emergency responder armed, one poisoned slot — killed at three
// randomized points (one leaving a torn WAL record, one mid-suspension)
// and recovered from the state directory each time, must end with books,
// responder state, and a slot journal bit-identical to the same scenario
// run without interruption — the tenants' accounts included, so they must
// hold some spot payment — and the journal must replay cleanly through the
// offline auditor.
func TestCrashSmokeBitIdenticalRecovery(t *testing.T) {
	const slots = 220
	rng := rand.New(rand.NewSource(29))
	k1 := 20 + rng.Intn(25)  // early, placed at the start of a suspension window
	k2 := 80 + rng.Intn(40)  // mid-run, dies leaving a torn record behind
	k3 := 150 + rng.Intn(40) // late, inside the responder's recovery countdown
	kills := []CrashKill{{AfterSlot: k1}, {AfterSlot: k2, TearTail: true}, {AfterSlot: k3}}

	opts := NetRunOptions{
		SlotLen: 20 * time.Millisecond,
		// Poison one reading mid-run: degraded slots must commit and
		// recover like any other.
		ErrorSlots: []int{60},
		Audit:      true,
		Emergency: &NetEmergencyOptions{
			RecoverySlots:     4,
			OverloadSlots:     []int{k1, k1 + 1, k1 + 2, k3 - 1, k3},
			OverloadRackWatts: 70,
			OverloadPDU:       0,
		},
	}

	run := func(name string, kills []CrashKill) (*CrashResult, string) {
		dir := t.TempDir()
		journal := filepath.Join(dir, "journal.jsonl")
		res, err := CrashNetRun(
			testbedScenario(t, TestbedOptions{Seed: 17, Slots: slots}),
			opts,
			CrashRunOptions{
				StateDir:      filepath.Join(dir, "state"),
				JournalPath:   journal,
				Policy:        wal.SyncEverySlot,
				SegmentBytes:  1 << 15,
				SnapshotEvery: 48,
				Kills:         kills,
			})
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		return res, journal
	}

	golden, goldenJournal := run("uninterrupted", nil)
	crashed, crashedJournal := run("crashed", kills)

	if golden.Cleared != slots-1 || golden.SlotErrors != 1 {
		t.Fatalf("uninterrupted run cleared/errors = %d/%d, want %d/1",
			golden.Cleared, golden.SlotErrors, slots-1)
	}
	if crashed.Segments != 4 {
		t.Fatalf("crashed run had %d lifetimes, want 4", crashed.Segments)
	}
	if crashed.Cleared != golden.Cleared || crashed.SlotErrors != golden.SlotErrors {
		t.Fatalf("crashed run cleared/errors = %d/%d, uninterrupted %d/%d (a slot re-ran or was lost)",
			crashed.Cleared, crashed.SlotErrors, golden.Cleared, golden.SlotErrors)
	}
	if crashed.Truncations != 1 {
		t.Errorf("crashed run repaired %d torn tails, want exactly 1 (the TearTail kill)", crashed.Truncations)
	}
	if crashed.Replayed == 0 {
		t.Error("crashed run replayed no slot records — recovery was vacuous")
	}
	if golden.InfeasibleSlots != 0 || crashed.InfeasibleSlots != 0 {
		t.Errorf("infeasible slots: uninterrupted %d, crashed %d", golden.InfeasibleSlots, crashed.InfeasibleSlots)
	}

	// The books: bit-identical, compensation terms and responder state
	// included.
	if golden.SpotRevenue != crashed.SpotRevenue {
		t.Errorf("spot revenue %v (uninterrupted) != %v (crashed)", golden.SpotRevenue, crashed.SpotRevenue)
	}
	if !reflect.DeepEqual(golden.Checkpoint, crashed.Checkpoint) {
		t.Errorf("final checkpoints diverge:\nuninterrupted %+v\ncrashed       %+v",
			golden.Checkpoint, crashed.Checkpoint)
	}
	paid := false
	for _, p := range crashed.Checkpoint.Payments {
		paid = paid || p.Paid.Sum > 0
	}
	if !paid {
		t.Errorf("no tenant paid for spot capacity — the comparison above is vacuous: %+v", crashed.Checkpoint.Payments)
	}

	// The journal: every slot present exactly once, bit-identical modulo
	// wall-clock stamps, across a file that three dying processes appended
	// to.
	goldenHdr, goldenEvents := crashJournal(t, goldenJournal)
	crashedHdr, crashedEvents := crashJournal(t, crashedJournal)
	if !reflect.DeepEqual(goldenHdr, crashedHdr) {
		t.Error("journal headers diverge")
	}
	if len(crashedEvents) != slots || len(goldenEvents) != slots {
		t.Fatalf("journal events: uninterrupted %d, crashed %d, want %d",
			len(goldenEvents), len(crashedEvents), slots)
	}
	for i := range goldenEvents {
		if !reflect.DeepEqual(goldenEvents[i], crashedEvents[i]) {
			t.Fatalf("journal slot %d diverges:\nuninterrupted %+v\ncrashed       %+v",
				i, goldenEvents[i], crashedEvents[i])
		}
	}

	// And the crashed journal must satisfy the offline auditor end to end.
	f, err := os.Open(crashedJournal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := audit.Replay(f, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Violations {
		if i >= 10 {
			t.Errorf("... and %d more", len(rep.Violations)-10)
			break
		}
		t.Errorf("audit violation: %s", v)
	}
	if rep.Slots != slots || rep.Degraded != 1 {
		t.Errorf("audit saw %d slots (%d degraded), want %d (1)", rep.Slots, rep.Degraded, slots)
	}
}
