package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"spotdc/internal/binenc"
	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/wal"
)

// market15k is a 15,000-rack market that has just run one slot: 300 PDUs
// of 50 racks, two tenants, every rack bidding, the emergency responder on
// (so the commit carries its 15,000 grant weights), shaped like the
// benchmark's paper15k-prod workload.
func market15k(tb testing.TB) (op *operator.Operator, bids []core.Bid, rd power.Reading, out operator.SlotOutcome) {
	tb.Helper()
	const racks, perPDU = 15000, 50
	pdus := make([]power.PDU, racks/perPDU)
	for i := range pdus {
		pdus[i] = power.PDU{ID: fmt.Sprintf("P%03d", i), Capacity: 7500}
	}
	rs := make([]power.Rack, racks)
	bids = make([]core.Bid, racks)
	rd = power.Reading{RackWatts: make([]float64, racks), OtherPDUWatts: make([]float64, len(pdus))}
	for i := range rs {
		tenant := fmt.Sprintf("tenant-%d", i/(racks/2))
		rs[i] = power.Rack{ID: fmt.Sprintf("R%05d", i), Tenant: tenant, PDU: i / perPDU, Guaranteed: 120, SpotHeadroom: 60}
		f := float64(i%97) / 97
		bids[i] = core.Bid{Rack: i, Tenant: tenant, Fn: core.LinearBid{DMax: 20 + 40*f, DMin: 5 * f, QMin: 0.02 + 0.1*f, QMax: 0.16 + 0.5*f}}
		rd.RackWatts[i] = 90
	}
	topo, err := power.NewTopology(float64(len(pdus))*7500/1.05, pdus, rs)
	if err != nil {
		tb.Fatal(err)
	}
	op, err = operator.New(operator.Config{Topology: topo, Emergency: &operator.ResponderConfig{}})
	if err != nil {
		tb.Fatal(err)
	}
	if out, err = op.RunSlot(bids, rd, 1.0/30); err != nil {
		tb.Fatal(err)
	}
	op.ObserveEmergencies(rd, 0.05)
	if out.Result.TotalWatts <= 0 {
		tb.Fatal("fixture market sold nothing")
	}
	return op, bids, rd, out
}

// TestSlotRecordAllocBudget is the twin of TestWireAllocBudget for the two
// records a production slot writes down. Once warm, capturing and
// journaling a 15,000-rack cleared event, and building plus encoding the
// slot's WAL record, allocate nothing: both borrow the slot's own slices
// and serialize once into writer-owned buffers.
func TestSlotRecordAllocBudget(t *testing.T) {
	op, bids, rd, out := market15k(t)

	t.Run("journal-append", func(t *testing.T) {
		loop := &MarketLoop{Journal: metrics.NewJournal(io.Discard)}
		journal := func() {
			ev := metrics.SlotEvent{
				Slot: 7, Price: out.Result.Price, SoldWatts: out.Result.TotalWatts, Revenue: out.RevenueThisSlot,
				Grants: len(out.Result.Allocations), Bids: len(bids), ClearMicros: out.ClearDuration.Microseconds(),
			}
			loop.captureInputs(&ev, bids, rd, out)
			captureEmergency(&ev, op)
			loop.appendJournal(ev)
		}
		for i := 0; i < 3; i++ {
			journal()
		}
		if a := testing.AllocsPerRun(10, journal); a != 0 {
			t.Errorf("capture + Journal.Append: %.1f allocs/op, want 0", a)
		}
		if err := loop.Journal.Err(); err != nil || loop.Journal.Events() != 14 {
			t.Fatalf("journal: %d events, err %v", loop.Journal.Events(), err)
		}
	})

	t.Run("wal-encode", func(t *testing.T) {
		d := &Durable{}
		var size int
		encode := func() {
			commit := op.LastSlotCommit(out, 1.0/30)
			data, err := d.encodeSlot(7, &commit)
			if err != nil {
				t.Fatal(err)
			}
			size = len(data)
		}
		for i := 0; i < 3; i++ {
			encode()
		}
		if a := testing.AllocsPerRun(10, encode); a != 0 {
			t.Errorf("LastSlotCommit + encodeSlot: %.1f allocs/op, want 0", a)
		}
		// 8 B/rack of responder grant weights; the payments are one row
		// per tenant, two here.
		if size < 15000*8 || size > 15000*9 {
			t.Errorf("slot record is %d bytes; expected ≈ 8.5 B/rack", size)
		}
	})
}

func BenchmarkSlotRecordEncode15k(b *testing.B) {
	op, _, _, out := market15k(b)
	d := &Durable{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit := op.LastSlotCommit(out, 1.0/30)
		if _, err := d.encodeSlot(i, &commit); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleCommit is a small commit with every section populated.
func sampleCommit() *operator.SlotCommit {
	return &operator.SlotCommit{
		Revenue: 0.1, EnergyKWh: 1.0 / 3, Slots: 41, EmergencySlots: 2, SpotPDU: []float64{120, math.Copysign(0, -1)}, SpotUPS: 150,
		Payments: []operator.PaymentDelta{{Tenant: "sprint", Amount: 0.25}, {Amount: 1e-300}, {Tenant: "opp", Amount: 3}},
		Responder: &operator.ResponderCheckpoint{
			SuspendedPDU: []bool{true, false}, CalmPDU: []int{1, 0}, StartPDU: []int{39, 0},
			LastGrants: []float64{55, 35}, Acted: 1, ReclaimedWatts: 80,
		},
	}
}

// TestSlotRecordRoundTrip: cleared and degraded records decode to what was
// encoded; the encoder's buffer is reused between them.
func TestSlotRecordRoundTrip(t *testing.T) {
	d := &Durable{}
	var into operator.SlotCommit
	for _, tc := range []struct {
		slot   int
		commit *operator.SlotCommit
	}{{8, sampleCommit()}, {9, nil}, {9, sampleCommit()}, {-3, &operator.SlotCommit{}}} {
		data, err := d.encodeSlot(tc.slot, tc.commit)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeSlotRecord(data, &into)
		if err != nil {
			t.Fatalf("slot %d: %v", tc.slot, err)
		}
		if rec.Slot != tc.slot || rec.Degraded != (tc.commit == nil) || (rec.Commit == nil) != (tc.commit == nil) {
			t.Fatalf("slot %d decoded as %+v", tc.slot, rec)
		}
		if tc.commit != nil {
			again, err := rec.Commit.AppendBinary(nil, nil)
			want, _ := tc.commit.AppendBinary(nil, nil)
			if err != nil || !bytes.Equal(again, want) {
				t.Errorf("slot %d: decoded commit re-encodes differently (%v)", tc.slot, err)
			}
		}
	}
}

// FuzzSlotRecordDecode feeds hostile bytes to the WAL slot-record decoder
// (and through it operator.SlotCommit's): no panic, counts and lengths the
// bytes cannot back are refused before anything is sized from them,
// trailing bytes are refused, and an accepted record re-encodes to the
// bytes it came from.
func FuzzSlotRecordDecode(f *testing.F) {
	d := &Durable{}
	for _, c := range []*operator.SlotCommit{sampleCommit(), nil, {}} {
		data, err := d.encodeSlot(5, c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), data...))
	}
	f.Add([]byte{1, slotFlagCommit, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // version 1, refused by name
	f.Add([]byte(`{"slot":3,"commit":{"revenue":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var into operator.SlotCommit
		rec, err := decodeSlotRecord(data, &into)
		if err != nil {
			return
		}
		if rec.Commit != nil {
			c := rec.Commit
			n := 8*len(c.SpotPDU) + 12*len(c.Payments)
			if r := c.Responder; r != nil {
				n += len(r.SuspendedPDU) + 8*(len(r.CalmPDU)+len(r.StartPDU)+len(r.LastGrants))
			}
			if n > len(data) {
				t.Fatalf("decoded %d bytes of elements from %d bytes of input", n, len(data))
			}
		}
		again, err := (&Durable{}).encodeSlot(rec.Slot, rec.Commit)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		// Tenant tables may be written in a different order or with unused
		// entries by a foreign encoder, so compare by decoding again.
		var into2 operator.SlotCommit
		rec2, err := decodeSlotRecord(again, &into2)
		if err != nil || rec2.Slot != rec.Slot || rec2.Degraded != rec.Degraded {
			t.Fatalf("re-encoded record decodes differently: %+v vs %+v (%v)", rec2, rec, err)
		}
		if rec.Commit != nil {
			a, _ := rec.Commit.AppendBinary(nil, nil)
			b, _ := rec2.Commit.AppendBinary(nil, nil)
			if !bytes.Equal(a, b) {
				t.Fatal("commit changed across a re-encode")
			}
		}
	})
}

// TestSlotRecordDecodeRejectsHostileBytes names the cases the fuzzer seeds.
func TestSlotRecordDecodeRejectsHostileBytes(t *testing.T) {
	d := &Durable{}
	good, err := d.encodeSlot(5, sampleCommit())
	if err != nil {
		t.Fatal(err)
	}
	good = append([]byte(nil), good...)
	degraded, _ := d.encodeSlot(6, nil)
	degraded = append([]byte(nil), degraded...)
	with := func(b []byte, at int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = v
		return out
	}
	for name, data := range map[string][]byte{
		"empty":               {},
		"bad-version":         with(good, 0, 7),
		"older-layout":        with(good, 0, 1),
		"unknown-flag":        with(good, 1, 0x42),
		"degraded-and-commit": with(good, 1, slotFlagDegraded|slotFlagCommit),
		"neither":             with(good, 1, 0),
		"bad-commit-version":  with(good, 10, 0xff),
		"truncated-commit":    good[:len(good)-2],
		"trailing-commit":     append(append([]byte(nil), good...), 0),
		"trailing-degraded":   append(append([]byte(nil), degraded...), 0),
	} {
		var into operator.SlotCommit
		if _, err := decodeSlotRecord(data, &into); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRecoverRefusesOlderVersionState: a state directory written by a
// build that stored JSON payloads is answered with an error that says so —
// not with a JSON decoder kept alive for it, and not with a generic
// "corrupt record".
func TestRecoverRefusesOlderVersionState(t *testing.T) {
	_, op, _ := loopFixture(t)
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(walTypeSlotJSON, []byte(`{"slot":0,"commit":{"revenue":0.1,"energy_kwh":0,"slots":1,"emergency_slots":0,"spot_ups":0}}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDurable(rec, op, nil); err == nil || !strings.Contains(err.Error(), "written by an older version") {
		t.Fatalf("type-0x01 record: err = %v", err)
	}
	// The same for a JSON snapshot payload.
	jsonSnap := &wal.Recovery{Snapshot: []byte(`{"checkpoint":{"slots":3},"taken":2,"have_taken":true}`)}
	if _, err := RecoverDurable(jsonSnap, op, nil); err == nil || !strings.Contains(err.Error(), "written by an older version") {
		t.Fatalf("JSON snapshot: err = %v", err)
	}
	if op.Slots() != 0 {
		t.Fatalf("refused recovery still touched the operator (%d slots)", op.Slots())
	}
}

// TestRecoverRefusesVersion1State: a state directory written by the build
// whose records carried one payment row per grant and an opaque extra-state
// field (durable version 1) is refused by name, for slot records and
// snapshots alike, before anything reaches the operator.
func TestRecoverRefusesVersion1State(t *testing.T) {
	_, op, _ := loopFixture(t)
	// Version 1 framing: version, flags, slot or taken, then a u32-length
	// extra field (empty here), then the operator's own encoding.
	v1 := func(flags byte, n int, body []byte) []byte {
		b := binenc.AppendInt([]byte{1, flags}, n)
		return append(binenc.AppendU32(b, 0), body...)
	}
	commit, err := sampleCommit().AppendBinary(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := op.Checkpoint()
	snap, err := cp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(walTypeSlot, v1(slotFlagCommit, 0, commit)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDurable(rec, op, nil); !errors.Is(err, errOlderLayout) {
		t.Fatalf("version-1 slot record: err = %v, want errOlderLayout", err)
	}
	if _, err := RecoverDurable(&wal.Recovery{Snapshot: v1(snapFlagTaken, 2, snap)}, op, nil); !errors.Is(err, errOlderLayout) {
		t.Fatalf("version-1 snapshot: err = %v, want errOlderLayout", err)
	}
	if op.Slots() != 0 {
		t.Fatalf("refused recovery still touched the operator (%d slots)", op.Slots())
	}
}

// TestCommitFailureIsStickyNotSilent is the regression for silent non-
// durability: whatever keeps a slot record or a snapshot from being built
// or appended must (a) never stop the market and (b) land in the log's
// sticky error, so the operator learns at shutdown — and the wal.errors
// check learns at once — that the books on disk end early. Each case runs
// the market loop's commit sequence (RunSlot, LastSlotCommit, commitSlot)
// with one record made unwritable: a tenant name over binenc's u16 length
// prefix, or a payload over wal.MaxRecord.
func TestCommitFailureIsStickyNotSilent(t *testing.T) {
	tooLong := strings.Repeat("x", math.MaxUint16+1)
	for _, tc := range []struct {
		name string
		// snapshotEvery is Durable.SnapshotEvery (0: no snapshot in 8 slots).
		snapshotEvery int
		// books, if set, is restored into the operator before slot 0.
		books func() operator.Checkpoint
		// tamper, if set, edits each slot's commit before it is written.
		tamper func(slot int, c *operator.SlotCommit)
		// committed is how many slot records must have reached the log
		// before it failed.
		committed int
		want      string
	}{
		{name: "unencodable-slot-record", committed: 3, want: "tenant names",
			tamper: func(slot int, c *operator.SlotCommit) {
				if slot == 3 {
					c.Payments = []operator.PaymentDelta{{Tenant: tooLong, Amount: 1}}
				}
			}},
		{name: "oversize-slot-payload", committed: 2, want: "exceeds",
			tamper: func(slot int, c *operator.SlotCommit) {
				if slot == 2 {
					c.SpotPDU = make([]float64, wal.MaxRecord/8+1)
				}
			}},
		{name: "unencodable-snapshot", committed: 4, want: "checkpoint tenant name", snapshotEvery: 4,
			books: func() operator.Checkpoint {
				return operator.Checkpoint{Payments: []operator.TenantPayment{{Tenant: tooLong}}}
			}},
		{name: "oversize-snapshot", committed: 4, want: "exceeds", snapshotEvery: 4,
			books: func() operator.Checkpoint {
				// 256 accounts under maximal names: just over wal.MaxRecord.
				var cp operator.Checkpoint
				for i := 0; i < 256; i++ {
					name := fmt.Sprintf("%03d", i) + tooLong[:math.MaxUint16-3]
					cp.Payments = append(cp.Payments, operator.TenantPayment{Tenant: name})
				}
				return cp
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, op, _ := loopFixture(t)
			if tc.books != nil {
				if err := op.Restore(tc.books()); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncEverySlot})
			if err != nil {
				t.Fatal(err)
			}
			d := &Durable{Log: log, SnapshotEvery: tc.snapshotEvery}
			const slotHours = 5.0 / 3600
			for slot := 0; slot < 8; slot++ {
				out, err := op.RunSlot(nil, durableReading(slot), slotHours)
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				commit := op.LastSlotCommit(out, slotHours)
				if tc.tamper != nil {
					tc.tamper(slot, &commit)
				}
				d.commitSlot(op, nil, slot, &commit)
			}
			if op.Slots() != 8 {
				t.Fatalf("the market stopped after %d slots", op.Slots())
			}
			if err := log.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Log.Err() = %v, want a sticky error mentioning %q", err, tc.want)
			}
			if _, err := log.Append(walTypeSlot, []byte{1}); err == nil {
				t.Error("the log kept accepting records after the failure: a hole in the slot sequence")
			}
			log.Close()

			// What is on disk is the complete prefix, and recovers cleanly.
			_, rec, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			_, op2, _ := loopFixture(t)
			recovered, err := RecoverDurable(rec, op2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if recovered.NextSlot != tc.committed || op2.Slots() != tc.committed {
				t.Errorf("recovered to slot %d with %d slots in the books, want %d", recovered.NextSlot, op2.Slots(), tc.committed)
			}
		})
	}
}
