package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestJournalAppendsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	events := []SlotEvent{
		{Slot: 0, Price: 0.05, SoldWatts: 120, Revenue: 0.0001, Grants: 3, Bids: 5, ClearMicros: 42},
		{Slot: 1, Degraded: true, Err: "poisoned reading", Bids: 5},
		{Slot: 2, Price: 0.06, SoldWatts: 80, Revenue: 0.00008, Grants: 2, Bids: 4, ClearMicros: 17,
			FaultDrops: 3, FaultDelays: 1, FaultSevers: 1},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if j.Events() != len(events) {
		t.Errorf("Events() = %d, want %d", j.Events(), len(events))
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("wrote %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var got SlotEvent
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if !reflect.DeepEqual(got, events[i]) {
			t.Errorf("line %d round-trip = %+v, want %+v", i, got, events[i])
		}
	}
	// The omitempty contract keeps clean-slot lines compact.
	if strings.Contains(lines[0], "degraded") || strings.Contains(lines[0], "fault_drops") {
		t.Errorf("clean slot carries degraded/fault fields: %s", lines[0])
	}
}

func TestJournalV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	hdr := JournalHeader{
		UPSCapacity: 1000,
		PDUCapacity: []float64{600, 600},
		Racks: []JournalRack{
			{ID: "S-1", Tenant: "Search", PDU: 0, Guaranteed: 200, Headroom: 60},
			{ID: "O-1", Tenant: "Sort", PDU: 1, Guaranteed: 180, Headroom: 40},
		},
		PriceStep:       0.001,
		UnderPrediction: 0.05,
		SlotHours:       1.0 / 12,
	}
	if err := j.Header(hdr); err != nil {
		t.Fatal(err)
	}
	if !j.HasHeader() {
		t.Error("HasHeader() = false after Header")
	}
	// A second header, or one after events, must be rejected.
	if err := j.Header(hdr); err == nil {
		t.Error("second Header accepted")
	}
	events := []SlotEvent{
		{Slot: 0, Price: 0.05, SoldWatts: 90, Revenue: 0.000375, Grants: 2, Bids: 2,
			Algorithm: "exact", Evaluations: 7,
			BidSet: []BidRecord{
				{Rack: 0, Tenant: "Search", DMax: 0.09, DMin: 0.01, QMin: 10, QMax: 60},
				{Rack: 1, Tenant: "Sort", DMax: 0.08, DMin: 0.02, QMin: 5, QMax: 40},
			},
			GrantSet:      []GrantRecord{{Rack: 0, Watts: 55}, {Rack: 1, Watts: 35}},
			PDUSpot:       []float64{120, 80},
			UPSSpot:       150,
			RackWatts:     []float64{150, 135},
			OtherPDUWatts: []float64{300, 280},
		},
		{Slot: 1, Degraded: true, Err: "poisoned reading", Bids: 2},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}

	gotHdr, gotEvents, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr == nil {
		t.Fatal("ReadJournal returned nil header for a v2 journal")
	}
	wantHdr := hdr
	wantHdr.Schema = JournalSchemaV3
	if !reflect.DeepEqual(*gotHdr, wantHdr) {
		t.Errorf("header round-trip = %+v, want %+v", *gotHdr, wantHdr)
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events round-trip = %+v, want %+v", gotEvents, events)
	}
}

func TestReadJournalV1(t *testing.T) {
	// A headerless journal is v1: nil header, every line an event.
	in := `{"slot":0,"price":0.05,"sold_watts":10,"revenue":0.0001,"grants":1,"bids":2,"clear_us":9}
{"slot":1,"price":0,"sold_watts":0,"revenue":0,"grants":0,"bids":2,"degraded":true,"err":"x","clear_us":0}
`
	hdr, events, err := ReadJournal(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if hdr != nil {
		t.Errorf("v1 journal yielded header %+v", hdr)
	}
	if len(events) != 2 || events[0].Slot != 0 || !events[1].Degraded {
		t.Errorf("events = %+v", events)
	}
}

func TestReadJournalUnknownSchema(t *testing.T) {
	if _, _, err := ReadJournal(strings.NewReader(`{"schema":"spotdc/slot-journal/v9"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestJournalStickyError(t *testing.T) {
	boom := errors.New("disk full")
	j := NewJournal(failWriter{boom})
	if err := j.Append(SlotEvent{Slot: 0}); !errors.Is(err, boom) {
		t.Fatalf("Append = %v, want %v", err, boom)
	}
	// The error is sticky and events never count.
	if err := j.Append(SlotEvent{Slot: 1}); !errors.Is(err, boom) {
		t.Fatalf("second Append = %v, want sticky %v", err, boom)
	}
	if j.Events() != 0 {
		t.Errorf("Events() = %d after write failures", j.Events())
	}
	if !errors.Is(j.Err(), boom) {
		t.Errorf("Err() = %v, want %v", j.Err(), boom)
	}
}

func TestReadJournalToleratesTornFinalLine(t *testing.T) {
	in := `{"slot":0,"price":0.05,"sold_watts":10,"revenue":0.0001,"grants":1,"bids":2,"clear_us":9}
{"slot":1,"price":0.06,"sold_watts":12,"revenue":0.0002,"grants":1,"bids":2,"clear_us":8}
{"slot":2,"price":0.07,"sold_wat`
	hdr, events, torn, err := ReadJournalInfo(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn tail should not fail the read: %v", err)
	}
	if hdr != nil || len(events) != 2 || !torn {
		t.Fatalf("hdr=%v events=%d torn=%v, want nil/2/true", hdr, len(events), torn)
	}
	// ReadJournal drops the tail silently.
	if _, events, err = ReadJournal(strings.NewReader(in)); err != nil || len(events) != 2 {
		t.Fatalf("ReadJournal: %d events, %v", len(events), err)
	}
}

func TestReadJournalTornOnlyLineIsError(t *testing.T) {
	// Torn-tail tolerance needs at least one valid line before the tear:
	// a file whose only line is unparseable — a header torn mid-append, or
	// a file that was never a journal — is a hard error, not an empty
	// journal. (spotdc-audit on a garbage file must keep exiting non-zero.)
	for _, in := range []string{`{"schema":"spotdc/sl`, "garbage\n"} {
		if _, _, _, err := ReadJournalInfo(strings.NewReader(in)); err == nil {
			t.Errorf("%q parsed as an (empty, torn) journal, want error", in)
		}
	}
}

func TestReadJournalMidFileCorruptionStillFatal(t *testing.T) {
	in := `{"slot":0,"price":0.05,"sold_watts":10,"revenue":0,"grants":1,"bids":2,"clear_us":9}
{"slot":1,"garbage
{"slot":2,"price":0.07,"sold_watts":14,"revenue":0,"grants":1,"bids":2,"clear_us":7}
`
	if _, _, _, err := ReadJournalInfo(strings.NewReader(in)); err == nil {
		t.Fatal("mid-file corruption tolerated")
	}
}

type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

func TestJournalSyncEvery(t *testing.T) {
	var sink syncCounter
	j := NewJournalOpts(&sink, JournalOptions{SyncEvery: 3})
	for i := 0; i < 10; i++ {
		if err := j.Append(SlotEvent{Slot: i}); err != nil {
			t.Fatal(err)
		}
	}
	if sink.syncs != 3 {
		t.Errorf("syncs = %d after 10 appends with SyncEvery=3, want 3", sink.syncs)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 4 {
		t.Errorf("explicit Sync did not reach the sink (syncs = %d)", sink.syncs)
	}
	// Non-syncable sinks are a no-op, not an error.
	if err := NewJournal(&bytes.Buffer{}).Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalResumedSkipsHeader(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournalOpts(&buf, JournalOptions{Resumed: true})
	if !j.HasHeader() {
		t.Fatal("resumed journal should report an existing header")
	}
	if err := j.Header(JournalHeader{}); err == nil {
		t.Fatal("resumed journal accepted a second header")
	}
	if err := j.Append(SlotEvent{Slot: 7}); err != nil {
		t.Fatal(err)
	}
	// Only the event line lands in the resumed file.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"slot":7`) {
		t.Fatalf("resumed journal wrote %q", buf.String())
	}
}
