package audit_test

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"spotdc/internal/audit"
	"spotdc/internal/metrics"
	"spotdc/internal/proto"
	"spotdc/internal/sim"
)

// TestGoldenNetRunJournalReplay is the PR's acceptance run: the seeded
// 220-slot networked fault schedule (the same plan as sim's
// TestNetRunSeededFaultSchedule) journals every slot with full schema-v2
// inputs, and the offline auditor must replay every cleared slot through
// both engines bit-identically with zero violations. The degraded slot
// (the poisoned reading at slot 60) must carry no revenue and no grants.
func TestGoldenNetRunJournalReplay(t *testing.T) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 17, Slots: 220})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	journal := metrics.NewJournal(&buf)
	res, err := sim.NetRun(sc, sim.NetRunOptions{
		SlotLen: 15 * time.Millisecond,
		BidFaults: proto.FaultPlan{
			Seed: 1, DropProb: 0.08, DelayProb: 0.05, MaxDelay: 3 * time.Millisecond, SeverProb: 0.02,
		},
		BroadcastFaults: proto.FaultPlan{
			Seed: 2, DropProb: 0.05, DelayProb: 0.05, MaxDelay: 3 * time.Millisecond, SeverProb: 0.01,
		},
		ErrorSlots:             []int{60},
		MaxConsecutiveFailures: 5,
		Reconnect:              true,
		SessionTTL:             150 * time.Millisecond,
		Journal:                journal,
		Audit:                  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleared != 219 || res.SlotErrors != 1 {
		t.Fatalf("cleared/errors = %d/%d, want 219/1", res.Cleared, res.SlotErrors)
	}
	if journal.Events() != 220 || !journal.HasHeader() {
		t.Fatalf("journal: %d events, header %v", journal.Events(), journal.HasHeader())
	}

	rep, err := audit.Replay(bytes.NewReader(buf.Bytes()), audit.Options{
		EngineCheck: true,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Violations {
		if i >= 10 {
			t.Errorf("... and %d more", len(rep.Violations)-10)
			break
		}
		t.Errorf("violation: %s", v)
	}
	if rep.Slots != 220 || rep.Cleared != 219 || rep.Degraded != 1 {
		t.Errorf("report slots/cleared/degraded = %d/%d/%d, want 220/219/1",
			rep.Slots, rep.Cleared, rep.Degraded)
	}
	// Every cleared slot must have replayed with full inputs — an
	// outcome-only slot means the capture path lost information.
	if rep.Replayed != rep.Cleared {
		t.Errorf("replayed %d of %d cleared slots (%d outcome-only)",
			rep.Replayed, rep.Cleared, rep.OutcomeOnly)
	}
	// The journal's books must equal the operator's: bit-for-bit is not
	// guaranteed for the *sum* (the journal is re-summed in a different
	// association), but compensated summation on both sides leaves only
	// ulp-level slack.
	if d := rep.TotalRevenue - res.SpotRevenue; d > 1e-9 || d < -1e-9 {
		t.Errorf("journal revenue $%v vs operator $%v (Δ %g)", rep.TotalRevenue, res.SpotRevenue, d)
	}
}

// TestReplayFlagsTamperedJournal proves the replay check has teeth: nudging
// one journaled outcome by a single cent must surface as a violation.
func TestReplayFlagsTamperedJournal(t *testing.T) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 3, Slots: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	journal := metrics.NewJournal(&buf)
	if _, err := sim.NetRun(sc, sim.NetRunOptions{
		SlotLen: 15 * time.Millisecond,
		Journal: journal,
		Audit:   true,
	}); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := metrics.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := audit.CheckJournal(hdr, events, audit.Options{EngineCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() {
		t.Fatalf("clean journal reported violations: %v", clean.Violations)
	}

	tampered := false
	for i := range events {
		if !events[i].Degraded && events[i].SoldWatts > 0 {
			events[i].Price += 0.01
			tampered = true
			break
		}
	}
	if !tampered {
		t.Skip("no cleared slot with sales to tamper with")
	}
	rep, err := audit.CheckJournal(hdr, events, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tampered journal passed the audit")
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Errorf("Err() = %v", err)
	}
}

// TestReplayEmergencyJournal replays a networked run with the emergency
// loop armed: the journaled reclaim plans, suspensions, and restores must
// re-derive bit-identically from the slot inputs (PlanReclaim is pure), and
// nudging a single journaled cut must surface as a violation.
func TestReplayEmergencyJournal(t *testing.T) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 17, Slots: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	journal := metrics.NewJournal(&buf)
	res, err := sim.NetRun(sc, sim.NetRunOptions{
		SlotLen: 20 * time.Millisecond,
		Journal: journal,
		Audit:   true,
		Emergency: &sim.NetEmergencyOptions{
			RecoverySlots:     2,
			OverloadSlots:     []int{8, 9, 10},
			OverloadRackWatts: 70,
			OverloadPDU:       0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmergenciesActed == 0 {
		t.Fatal("overload schedule never fired — the replay below is vacuous")
	}

	hdr, events, err := metrics.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || !hdr.EmergencyResponder {
		t.Fatalf("journal header = %+v, want responder on", hdr)
	}
	rep, err := audit.CheckJournal(hdr, events, audit.Options{EngineCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("emergency journal flagged: %v", rep.Violations)
	}

	tampered := false
	for i := range events {
		if len(events[i].Reclaims) > 0 {
			events[i].Reclaims[0].SpotCutWatts += 1
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no reclaim event journaled")
	}
	rep, err = audit.CheckJournal(hdr, events, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tampered reclaim record passed the audit")
	}
}

// TestCheckJournalV1OutcomeOnly asserts the backward-compat path: a v1
// journal (no header) still gets outcome-level checks, and a degraded slot
// that carries revenue is flagged — the billing-leak class of bug this PR
// fixes.
func TestCheckJournalV1OutcomeOnly(t *testing.T) {
	events := []metrics.SlotEvent{
		{Slot: 0, Price: 0.05, SoldWatts: 100, Revenue: 0.000625, Grants: 1, Bids: 2},
		{Slot: 1, Degraded: true, Err: "poisoned reading"},
	}
	rep, err := audit.CheckJournal(nil, events, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean v1 journal flagged: %v", rep.Violations)
	}
	if rep.OutcomeOnly != 1 || rep.Replayed != 0 {
		t.Errorf("outcome-only/replayed = %d/%d, want 1/0", rep.OutcomeOnly, rep.Replayed)
	}

	// A degraded slot with a surviving spot line item is a billing leak.
	leaky := []metrics.SlotEvent{
		{Slot: 0, Degraded: true, Err: "x", Revenue: 0.001},
	}
	rep, err = audit.CheckJournal(nil, leaky, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("degraded slot with revenue passed the audit")
	}

	// Out-of-order slots are flagged.
	rep, err = audit.CheckJournal(nil, []metrics.SlotEvent{{Slot: 5}, {Slot: 4}}, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("out-of-order journal passed the audit")
	}
}

// TestV2FixtureStillReadsAndAudits replays a journal written by the last
// build that emitted schema v2 (testdata/journal_v2.jsonl: 16 testbed
// slots, one degraded, one emergency reclaim — every array a JSON array).
// The reader decodes each line by what it carries, so the file must keep
// replaying bit-identically through both engines, and re-journaling its
// events in the current packed form must audit to the identical report.
func TestV2FixtureStillReadsAndAudits(t *testing.T) {
	raw, err := os.ReadFile("testdata/journal_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"packed"`)) || !bytes.Contains(raw, []byte(`"bid_set":[`)) {
		t.Fatal("fixture is not an expanded v2 journal")
	}
	opts := audit.Options{EngineCheck: true}
	rep, err := audit.Replay(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header == nil || rep.Header.Schema != metrics.JournalSchemaV2 {
		t.Fatalf("fixture header = %+v", rep.Header)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Slots != 16 || rep.Degraded != 1 || rep.Replayed != 15 || rep.OutcomeOnly != 0 {
		t.Fatalf("fixture report = %+v", rep)
	}

	hdr, events, err := metrics.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var packed bytes.Buffer
	j := metrics.NewJournal(&packed)
	if err := j.Header(*hdr); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(packed.Bytes(), []byte(`"packed":"`)) || bytes.Contains(packed.Bytes(), []byte(`"bid_set"`)) {
		t.Fatal("re-journaled fixture is not packed")
	}
	assertSameReport(t, "v2 fixture vs its v3 re-journal", rep, replay(t, packed.Bytes(), opts))
}

// TestDumpReauditsIdentically: spotdc-audit -dump's output for a packed
// journal — here the seeded emergency run's, so reclaim records are in it —
// is an expanded v2 journal that audits to the identical report.
func TestDumpReauditsIdentically(t *testing.T) {
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 17, Slots: 20})
	if err != nil {
		t.Fatal(err)
	}
	var packed bytes.Buffer
	if _, err := sim.NetRun(sc, sim.NetRunOptions{
		SlotLen: 15 * time.Millisecond,
		Journal: metrics.NewJournal(&packed),
		Audit:   true,
		Emergency: &sim.NetEmergencyOptions{
			RecoverySlots: 2, OverloadSlots: []int{8, 9, 10}, OverloadRackWatts: 70, ResetDelay: time.Millisecond,
		},
	}); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if torn, err := metrics.DumpJournal(&dump, bytes.NewReader(packed.Bytes())); err != nil || torn {
		t.Fatalf("DumpJournal: torn=%v err=%v", torn, err)
	}
	if bytes.Contains(dump.Bytes(), []byte(`"packed"`)) || !bytes.Contains(dump.Bytes(), []byte(`"reclaims":[`)) {
		t.Fatalf("dump is not the expanded form:\n%.300s", dump.String())
	}
	opts := audit.Options{EngineCheck: true}
	want := replay(t, packed.Bytes(), opts)
	if want.Replayed == 0 || !want.OK() {
		t.Fatalf("packed journal report = %+v", want)
	}
	assertSameReport(t, "packed journal vs its dump", want, replay(t, dump.Bytes(), opts))
}

func replay(t *testing.T, journal []byte, opts audit.Options) *audit.Report {
	t.Helper()
	rep, err := audit.Replay(bytes.NewReader(journal), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertSameReport compares two reports field for field; the schema tag is
// the one thing a re-encoding is allowed to change.
func assertSameReport(t *testing.T, what string, a, b *audit.Report) {
	t.Helper()
	ha, hb := *a.Header, *b.Header
	ha.Schema, hb.Schema = "", ""
	ca, cb := *a, *b
	ca.Header, cb.Header = &ha, &hb
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("%s: reports differ:\n%+v\n%+v", what, ca, cb)
	}
}
