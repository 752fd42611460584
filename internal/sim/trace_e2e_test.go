package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spotdc/internal/metrics"
	"spotdc/internal/otrace"
	"spotdc/internal/proto"
	"spotdc/internal/wal"
)

// trace_e2e_test.go pins the slot-lifecycle tracing end to end (DESIGN
// §4i): a seeded 220-slot networked run at 100% sampling must yield
// exactly one root span per journaled slot, stage children covering
// predict/clear/WAL/broadcast on every cleared slot, the degraded-slot
// shape on the fault-schedule slot, and tenant submit spans adopted into
// the operator's slot trace across both wire encodings.

// spanIndex groups one journal's records for assertion.
type spanIndex struct {
	all     []otrace.SpanRecord
	bySpan  map[string]otrace.SpanRecord   // span ID -> record
	byTrace map[string][]otrace.SpanRecord // trace ID -> records
}

func indexSpans(t *testing.T, r *bytes.Buffer) spanIndex {
	t.Helper()
	recs, err := otrace.ReadSpans(bytes.NewReader(r.Bytes()))
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	ix := spanIndex{all: recs, bySpan: map[string]otrace.SpanRecord{}, byTrace: map[string][]otrace.SpanRecord{}}
	for _, rec := range recs {
		ix.bySpan[rec.Span] = rec
		ix.byTrace[rec.Trace] = append(ix.byTrace[rec.Trace], rec)
	}
	return ix
}

// childNames returns the names of a root's direct children within its trace.
func (ix spanIndex) childNames(root otrace.SpanRecord) map[string]int {
	names := map[string]int{}
	for _, rec := range ix.byTrace[root.Trace] {
		if rec.Parent == root.Span {
			names[rec.Name]++
		}
	}
	return names
}

func TestNetRunSpansMatchFaultSchedule(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 17, Slots: 220})

	var opSpans, tenSpans bytes.Buffer
	// SlowPercentile off keeps the span set a pure function of the fault
	// schedule (no wall-clock-dependent latency upgrades); SampleEvery 1
	// is the acceptance regime — every slot's trace publishes.
	opTracer := otrace.NewTracer(otrace.Options{
		SampleEvery: 1, Seed: 41, SlowPercentile: -1, RingCapacity: 8192, Journal: &opSpans,
	})
	tenTracer := otrace.NewTracer(otrace.Options{
		SampleEvery: 1, Seed: 43, SlowPercentile: -1, RingCapacity: 8192, Journal: &tenSpans,
	})

	// A crash run with no kills is one durable lifetime: every slot commits
	// to the WAL, so the wal_commit span shows on every slot.
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	const degradedSlot = 60
	res, err := CrashNetRun(sc, NetRunOptions{
		SlotLen:    15 * time.Millisecond,
		ErrorSlots: []int{degradedSlot},
		// Half the tenants speak binary frames (v2 trace negotiation),
		// half JSON: adoption must work identically over both.
		WireFor: func(i int) proto.Encoding {
			if i%2 == 0 {
				return proto.WireBinary
			}
			return proto.WireJSON
		},
		Tracer:       opTracer,
		TenantTracer: tenTracer,
	}, CrashRunOptions{
		StateDir:      filepath.Join(dir, "state"),
		JournalPath:   journal,
		Policy:        wal.SyncEverySlot,
		SnapshotEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleared != sc.Slots-1 || res.SlotErrors != 1 {
		t.Fatalf("cleared %d / errors %d, want %d / 1", res.Cleared, res.SlotErrors, sc.Slots-1)
	}

	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	hdr, events, err := metrics.ReadJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || hdr.Schema != metrics.JournalSchemaV3 {
		t.Fatalf("journal header = %+v, want schema %s", hdr, metrics.JournalSchemaV3)
	}
	if len(events) != sc.Slots {
		t.Fatalf("journal has %d events, want %d", len(events), sc.Slots)
	}
	degraded := map[int]bool{}
	for _, ev := range events {
		if ev.Degraded {
			degraded[ev.Slot] = true
		}
	}
	if !degraded[degradedSlot] || len(degraded) != 1 {
		t.Fatalf("degraded slots = %v, want exactly {%d}", degraded, degradedSlot)
	}

	op := indexSpans(t, &opSpans)

	// Acceptance: span slot IDs join 1:1 with the v2 journal — exactly one
	// "slot" root per journaled slot, and no roots for unjournaled slots.
	roots := map[int]otrace.SpanRecord{}
	for _, rec := range op.all {
		if rec.Name != "slot" || !rec.Root() {
			continue
		}
		if prev, dup := roots[rec.Slot]; dup {
			t.Fatalf("slot %d has two root spans (%s and %s)", rec.Slot, prev.Span, rec.Span)
		}
		roots[rec.Slot] = rec
	}
	if len(roots) != len(events) {
		t.Fatalf("%d slot roots, want %d (one per journaled slot)", len(roots), len(events))
	}
	for _, ev := range events {
		if _, ok := roots[ev.Slot]; !ok {
			t.Fatalf("journaled slot %d has no root span", ev.Slot)
		}
	}

	// Acceptance: every cleared slot's children cover the full lifecycle;
	// the degraded slot keeps the drain/predict/commit/broadcast skeleton
	// but never clears or audits, and its root is marked.
	for slot, root := range roots {
		kids := op.childNames(root)
		if degraded[slot] {
			if root.Attrs["degraded"] != true {
				t.Errorf("slot %d root missing degraded attr: %v", slot, root.Attrs)
			}
			if e, _ := root.Attrs["error"].(string); e == "" {
				t.Errorf("slot %d degraded root has no error attr", slot)
			}
			for _, want := range []string{"bid_drain", "predict", "wal_commit", "broadcast"} {
				if kids[want] != 1 {
					t.Errorf("degraded slot %d: %d %q children, want 1 (have %v)", slot, kids[want], want, kids)
				}
			}
			if kids["clear"] != 0 || kids["audit"] != 0 {
				t.Errorf("degraded slot %d traced clear/audit: %v", slot, kids)
			}
			continue
		}
		for _, want := range []string{"bid_drain", "predict", "clear", "audit", "wal_commit", "broadcast"} {
			if kids[want] != 1 {
				t.Errorf("slot %d: %d %q children, want 1 (have %v)", slot, kids[want], want, kids)
			}
		}
		if root.Attrs["degraded"] != nil {
			t.Errorf("cleared slot %d marked degraded", slot)
		}
	}

	// Broadcast fan-out: each slot's broadcast span fathers per-session
	// send spans (writer goroutines, StartRemote). With all eight sessions
	// healthy, at least one send must land in every slot's trace.
	for slot, root := range roots {
		sends := 0
		for _, rec := range op.byTrace[root.Trace] {
			if rec.Name != "send" {
				continue
			}
			parent, ok := op.bySpan[rec.Parent]
			if !ok || parent.Name != "broadcast" {
				t.Errorf("slot %d send span parents under %q, want broadcast", slot, parent.Name)
			}
			sends++
		}
		if sends == 0 {
			t.Errorf("slot %d trace has no send spans", slot)
		}
	}

	// Tenant plane: every await_price that actually received a price was
	// adopted into the operator's slot trace — its whole trace (root,
	// bid_decision, submit, await_price) republishes under the operator's
	// trace ID, with the root parented under the slot's broadcast span.
	ten := indexSpans(t, &tenSpans)
	adoptedTenants := map[string]bool{}
	adopted, awaited := 0, 0
	for _, rec := range ten.all {
		if rec.Name != "await_price" {
			continue
		}
		if _, failed := rec.Attrs["error"]; failed {
			continue
		}
		awaited++
		root, ok := roots[rec.Slot]
		if !ok {
			t.Fatalf("tenant await_price for slot %d with no operator root", rec.Slot)
		}
		if rec.Trace != root.Trace {
			t.Fatalf("slot %d tenant trace %s != operator trace %s", rec.Slot, rec.Trace, root.Trace)
		}
		tenRoot, ok := ten.bySpan[rec.Parent]
		if !ok || tenRoot.Name != "tenant_slot" {
			t.Fatalf("slot %d await_price parents under %+v, want tenant_slot", rec.Slot, tenRoot)
		}
		if bcast, ok := op.bySpan[tenRoot.Parent]; !ok || bcast.Name != "broadcast" || bcast.Slot != rec.Slot {
			t.Fatalf("slot %d tenant_slot parents under %+v, want that slot's broadcast span", rec.Slot, bcast)
		}
		// The submit sibling rode the same adoption.
		for _, sib := range ten.byTrace[rec.Trace] {
			if sib.Parent == tenRoot.Span && sib.Name == "submit" {
				adopted++
				if name, _ := tenRoot.Attrs["tenant"].(string); name != "" {
					adoptedTenants[name] = true
				}
			}
		}
	}
	if awaited == 0 || adopted == 0 {
		t.Fatalf("no adopted tenant traces (awaited %d, adopted submits %d)", awaited, adopted)
	}
	// WireFor splits the agents half-binary, half-JSON; adoption must be
	// proven over both encodings (binary via the frame's trace field, JSON
	// via the trace key). Sprint tenants only bid when load outruns their reservation,
	// so coverage is per encoding group, not per tenant.
	byEncoding := map[proto.Encoding]int{}
	for i, a := range sc.Agents {
		if adoptedTenants[a.Name()] {
			if i%2 == 0 {
				byEncoding[proto.WireBinary]++
			} else {
				byEncoding[proto.WireJSON]++
			}
		}
	}
	if byEncoding[proto.WireBinary] == 0 || byEncoding[proto.WireJSON] == 0 {
		t.Fatalf("adopted submits per encoding = %v (tenants %v), want both covered", byEncoding, adoptedTenants)
	}
}

// TestSmokeSpans is the CI smoke (make smoke-spans): a small in-process
// run traced at 1-in-4 head sampling, its span journal parsed back and
// converted to Chrome trace-event JSON that must validate — the same
// pipeline spotdc-spans -check runs.
func TestSmokeSpans(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 5, Slots: 40})
	var spans bytes.Buffer
	tr := otrace.NewTracer(otrace.Options{SampleEvery: 4, Seed: 7, SlowPercentile: -1, Journal: &spans})
	if _, err := Run(sc, RunOptions{Tracer: tr, Audit: true}); err != nil {
		t.Fatal(err)
	}

	recs, err := otrace.ReadSpans(bytes.NewReader(spans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, rec := range recs {
		if rec.Root() {
			if rec.Name != "slot" || rec.Slot%4 != 0 {
				t.Fatalf("unexpected root %+v under 1-in-4 head sampling", rec)
			}
			roots++
		}
	}
	if want := sc.Slots / 4; roots != want {
		t.Fatalf("%d sampled roots, want %d", roots, want)
	}

	var chrome bytes.Buffer
	if err := otrace.WriteChromeTrace(&chrome, recs); err != nil {
		t.Fatal(err)
	}
	if err := otrace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("produced trace fails validation: %v", err)
	}
}
