package metrics

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// specialFloats are the values decimal formatting is most likely to lose.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e-7, 123456789.125,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
	math.MaxFloat64, math.Float64frombits(0x000fffffffffffff),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000abc), // NaN with a payload
	math.Float64frombits(0xfff0000000000001), // signalling, negative
}

// bulkFloat draws any bit pattern the packed section must carry; finite
// draws the subset a JSON scalar can.
func bulkFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return math.Float64frombits(rng.Uint64())
}

func finite(rng *rand.Rand) float64 {
	for {
		if v := bulkFloat(rng); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

func floats(rng *rand.Rand, n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = bulkFloat(rng)
	}
	return out
}

// randomEvent draws one event of the given shape: "cleared" (bulk arrays),
// "truncated" (cleared, bid set dropped), "degraded", "emergency" (cleared
// plus responder records) or "empty" (cleared, every set empty).
func randomEvent(rng *rand.Rand, shape string) SlotEvent {
	tenants := []string{"", "Search-1", "Count-1", "tenant \"quoted\"\n", "δοκιμή"}
	ev := SlotEvent{
		Slot:        rng.Intn(1 << 20),
		UnixMicros:  rng.Int63n(1 << 50),
		Bids:        rng.Intn(100),
		ClearMicros: rng.Int63n(1 << 20),
		FaultDrops:  int64(rng.Intn(3)),
		FaultSevers: int64(rng.Intn(2)),
	}
	if shape == "degraded" {
		ev.Degraded = true
		ev.Err = "proto: slot 60: reading is NaN\t(\"poisoned\")\x01"
		return ev
	}
	ev.Price, ev.SoldWatts, ev.Revenue = finite(rng), finite(rng), finite(rng)
	ev.Algorithm = []string{"exact", "scan", ""}[rng.Intn(3)]
	ev.Evaluations = rng.Intn(50)
	if shape == "empty" {
		return ev
	}
	ev.UPSSpot = finite(rng)
	nb, ng := rng.Intn(40), rng.Intn(40)
	for i := 0; i < nb; i++ {
		ev.BidSet = append(ev.BidSet, BidRecord{
			Rack: rng.Intn(1 << 31), Tenant: tenants[rng.Intn(len(tenants))],
			DMax: bulkFloat(rng), DMin: bulkFloat(rng), QMin: bulkFloat(rng), QMax: bulkFloat(rng),
		})
	}
	for i := 0; i < ng; i++ {
		ev.GrantSet = append(ev.GrantSet, GrantRecord{Rack: rng.Intn(1 << 31), Watts: bulkFloat(rng)})
	}
	ev.Grants = ng
	ev.PDUSpot = floats(rng, rng.Intn(4))
	ev.RackWatts = floats(rng, rng.Intn(40))
	ev.OtherPDUWatts = floats(rng, rng.Intn(4))
	switch shape {
	case "truncated":
		ev.BidSet, ev.InputsTruncated = nil, true
	case "emergency":
		ev.SuspendedPDUs = []int{0, 3}
		ev.SuspendedUPS = rng.Intn(2) == 0
		ev.Reclaims = []ReclaimRecord{{
			Level: "PDU", PDU: 1, LoadWatts: finite(rng), CapacityWatts: 715,
			SpotCutWatts: finite(rng), Escalated: true, GuaranteedCutWatts: 12.5,
			Budgets: []BudgetRecord{{Rack: 2, BudgetWatts: 145, SpotCut: 30}, {Rack: 5, BudgetWatts: 120, GuaranteedCut: 5}},
		}, {Level: "UPS", PDU: -1, LoadWatts: 1400, CapacityWatts: 1370}}
		ev.RestoredPDUs = []int{2}
		ev.RestoredUPS = true
	}
	return ev
}

// equalEvents is reflect.DeepEqual with float64s compared by bit pattern
// (DeepEqual's == treats NaN as unequal to itself and -0 as equal to 0).
func equalEvents(a, b SlotEvent) bool {
	return reflect.DeepEqual(bitsOf(reflect.ValueOf(a)), bitsOf(reflect.ValueOf(b)))
}

// bitsOf rebuilds v with every float64 replaced by its uint64 bits.
func bitsOf(v reflect.Value) interface{} {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		out := make([]interface{}, v.Len())
		for i := range out {
			out[i] = bitsOf(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := make(map[string]interface{}, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			out[v.Type().Field(i).Name] = bitsOf(v.Field(i))
		}
		return out
	default:
		return v.Interface()
	}
}

// TestJournalPackedRoundTrip is the v3 property: any event → Append → line →
// ReadJournal comes back reflect.DeepEqual and bit-exact, for every event
// shape, including -0, denormals and NaN payloads in the packed arrays.
func TestJournalPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var want []SlotEvent
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Header(JournalHeader{UPSCapacity: 1370, PDUCapacity: []float64{715}, SlotHours: 1.0 / 30}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		shape := []string{"cleared", "truncated", "degraded", "emergency", "empty"}[i%5]
		ev := randomEvent(rng, shape)
		if err := j.Append(ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, shape, err)
		}
		want = append(want, ev)
	}
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if lines != len(want)+1 {
		t.Fatalf("journal holds %d lines for a header and %d events", lines, len(want))
	}
	hdr, got, torn, err := ReadJournalInfo(bytes.NewReader(buf.Bytes()))
	if err != nil || torn {
		t.Fatalf("ReadJournalInfo: torn=%v err=%v", torn, err)
	}
	if hdr == nil || hdr.Schema != JournalSchemaV3 {
		t.Fatalf("header = %+v, want schema %s", hdr, JournalSchemaV3)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !equalEvents(got[i], want[i]) {
			t.Fatalf("event %d did not round-trip:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// A torn packed line is a torn tail like any other.
	cut := buf.Bytes()[:buf.Len()-200]
	if _, evs, torn, err := ReadJournalInfo(bytes.NewReader(cut)); err != nil || !torn || len(evs) != len(want)-1 {
		t.Fatalf("torn packed tail: %d events, torn=%v, err=%v", len(evs), torn, err)
	}
}

// TestJournalLineMatchesStructTags pins the hand-built line to SlotEvent's
// struct tags: every line is valid JSON, and its scalar keys are exactly
// the keys encoding/json would have written for the event with its bulk
// arrays removed ("packed" standing in for them).
func TestJournalLineMatchesStructTags(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		shape := []string{"cleared", "truncated", "degraded", "emergency", "empty"}[i%5]
		ev := randomEvent(rng, shape)
		if ev.UPSSpot == 0 {
			// The one deliberate difference: omitempty drops a -0 scalar,
			// the hand-built line writes "-0" and so keeps its sign bit.
			ev.UPSSpot = 0
		}
		var buf bytes.Buffer
		if err := NewJournal(&buf).Append(ev); err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%s line is not JSON: %v\n%s", shape, err, buf.String())
		}
		scalars := ev
		packed := len(ev.BidSet)+len(ev.GrantSet)+len(ev.PDUSpot)+len(ev.RackWatts)+len(ev.OtherPDUWatts) > 0
		scalars.BidSet, scalars.GrantSet, scalars.PDUSpot, scalars.RackWatts, scalars.OtherPDUWatts = nil, nil, nil, nil, nil
		ref, err := json.Marshal(scalars)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]json.RawMessage
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		if _, ok := got["packed"]; ok != packed {
			t.Errorf("%s: packed key present=%v, want %v", shape, ok, packed)
		}
		delete(got, "packed")
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: line lacks key %q that the struct tags write", shape, k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: line carries key %q that the struct tags omit", shape, k)
			}
		}
	}
}

// TestJournalRejectsUnencodable: a NaN scalar (JSON has no spelling for
// it) and a rack index outside the section's range fail the append with a
// sticky error instead of writing a line no reader can parse.
func TestJournalRejectsUnencodable(t *testing.T) {
	for name, ev := range map[string]SlotEvent{
		"nan-price":     {Slot: 1, Price: math.NaN()},
		"inf-ups-spot":  {Slot: 2, UPSSpot: math.Inf(1)},
		"negative-rack": {Slot: 3, GrantSet: []GrantRecord{{Rack: -1, Watts: 5}}},
		"nan-reclaim":   {Slot: 4, Reclaims: []ReclaimRecord{{Level: "PDU", LoadWatts: math.NaN()}}},
	} {
		var buf bytes.Buffer
		j := NewJournal(&buf)
		if err := j.Append(ev); err == nil {
			t.Errorf("%s: appended, wrote %q", name, buf.String())
		}
		if buf.Len() != 0 || j.Events() != 0 || j.Err() == nil {
			t.Errorf("%s: wrote %d bytes, %d events, sticky %v", name, buf.Len(), j.Events(), j.Err())
		}
	}
}

// TestReadJournalRejectsAmbiguousLine: a line with both a packed section
// and an expanded array has two answers to "what were the bids".
func TestReadJournalRejectsAmbiguousLine(t *testing.T) {
	var buf bytes.Buffer
	if err := NewJournal(&buf).Append(SlotEvent{Slot: 1, RackWatts: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	line := strings.Replace(buf.String(), `,"packed"`, `,"rack_watts":[1,2],"packed"`, 1)
	// Two lines so the defect is mid-file, not a torn tail.
	if _, _, err := ReadJournal(strings.NewReader(line + line)); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("ambiguous line: err = %v", err)
	}
}

// TestDumpJournalExpands: the dump of a packed journal is plain JSONL that
// reads back to the same events, with every array spelled out.
func TestDumpJournalExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var packed bytes.Buffer
	j := NewJournal(&packed)
	if err := j.Header(JournalHeader{UPSCapacity: 1000, SlotHours: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ev := randomEvent(rng, []string{"cleared", "degraded", "emergency"}[i%3])
		// The dump is JSON arrays again, so keep the bulk values finite.
		for k := range ev.BidSet {
			ev.BidSet[k].DMax, ev.BidSet[k].DMin, ev.BidSet[k].QMin, ev.BidSet[k].QMax = finite(rng), finite(rng), finite(rng), finite(rng)
		}
		for k := range ev.GrantSet {
			ev.GrantSet[k].Watts = finite(rng)
		}
		for _, vs := range [][]float64{ev.PDUSpot, ev.RackWatts, ev.OtherPDUWatts} {
			for k := range vs {
				vs[k] = finite(rng)
			}
		}
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	var dump bytes.Buffer
	if torn, err := DumpJournal(&dump, bytes.NewReader(packed.Bytes())); err != nil || torn {
		t.Fatalf("DumpJournal: torn=%v err=%v", torn, err)
	}
	if strings.Contains(dump.String(), `"packed"`) || !strings.Contains(dump.String(), `"bid_set":[{`) {
		t.Fatalf("dump is not expanded:\n%.400s", dump.String())
	}
	hp, ep, err := ReadJournal(bytes.NewReader(packed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hd, ed, err := ReadJournal(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hd.Schema != JournalSchemaV2 || hp.Schema != JournalSchemaV3 {
		t.Errorf("schemas: dump %q, packed %q", hd.Schema, hp.Schema)
	}
	hd.Schema = hp.Schema
	if !reflect.DeepEqual(hd, hp) || len(ed) != len(ep) {
		t.Fatalf("dump header/events differ: %+v vs %+v, %d vs %d events", hd, hp, len(ed), len(ep))
	}
	for i := range ep {
		if !equalEvents(ed[i], ep[i]) {
			t.Fatalf("event %d differs after dump", i)
		}
	}
}

// event15k is a cleared 15,000-rack event shaped like the paper-scale
// market's: every rack bids and is granted, two tenants.
func event15k() SlotEvent {
	const racks = 15000
	ev := SlotEvent{
		Slot: 123456, UnixMicros: 1790000000000000, Price: 0.0375, SoldWatts: 412345.5, Revenue: 1.2886,
		Grants: racks, Bids: racks, ClearMicros: 8200, Algorithm: "exact", Evaluations: 11, UPSSpot: 612345.25,
		PDUSpot: make([]float64, 150), OtherPDUWatts: make([]float64, 150), RackWatts: make([]float64, racks),
		BidSet: make([]BidRecord, racks), GrantSet: make([]GrantRecord, racks),
	}
	for i := 0; i < racks; i++ {
		f := float64(i)
		ev.RackWatts[i] = 3000 + f/7
		ev.BidSet[i] = BidRecord{Rack: i, Tenant: fmt.Sprintf("tenant-%d", i/(racks/2)),
			DMax: 500 + f/3, DMin: 100 + f/9, QMin: 0.02 + f/1e6, QMax: 0.2 + f/1e5}
		ev.GrantSet[i] = GrantRecord{Rack: i, Watts: 27.489 + f/11}
	}
	return ev
}

// TestJournalAppendAllocBudget: once its buffers have grown, appending a
// 15,000-rack cleared event allocates nothing (the proto half of the
// budget is TestSlotRecordAllocBudget).
func TestJournalAppendAllocBudget(t *testing.T) {
	ev := event15k()
	j := NewJournal(discard{})
	for i := 0; i < 3; i++ {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Journal.Append of a 15,000-rack event: %.1f allocs/op, want 0", a)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkJournalAppend15k(b *testing.B) {
	ev := event15k()
	var n countWriter
	j := NewJournal(&n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "B/line")
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// sectionOf packs ev's bulk arrays, as a fuzz seed.
func sectionOf(t testing.TB, ev SlotEvent) []byte {
	var j Journal
	sec, err := appendSection(nil, &ev, &j.names)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// FuzzJournalSectionDecode feeds hostile bytes to the packed-section
// decoder: it must never panic, must refuse counts and lengths the bytes
// cannot back before allocating from them, must refuse trailing bytes, and
// whatever it accepts must re-encode to the same bytes.
func FuzzJournalSectionDecode(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new
	// coverage, and a kilobyte-sized seed spends a 10 s smoke doing that.
	f.Add(sectionOf(f, SlotEvent{
		BidSet: []BidRecord{
			{Rack: 0, Tenant: "Search-1", DMax: 50, DMin: 30, QMin: 0.3, QMax: 0.8},
			{Rack: 7, DMax: 60, DMin: 5, QMin: 0.02, QMax: math.NaN()},
		},
		GrantSet: []GrantRecord{{Rack: 7, Watts: 35}},
		PDUSpot:  []float64{120, math.Copysign(0, -1)}, RackWatts: []float64{150, 135, 90}, OtherPDUWatts: []float64{300},
	}))
	f.Add(sectionOf(f, SlotEvent{RackWatts: []float64{1}}))
	f.Add([]byte{sectionVersion, 0xff, 0xff, 0xff, 0xff})             // 4 G names
	f.Add([]byte{sectionVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xf0}) // 4 G bids
	f.Add(append(sectionOf(f, SlotEvent{PDUSpot: []float64{2}}), 0))  // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev SlotEvent
		if err := readSection(data, &ev); err != nil {
			return
		}
		// Accepted: every decoded element was backed by input bytes.
		if n := len(ev.BidSet)*bidRecordSize + len(ev.GrantSet)*grantSize +
			8*(len(ev.PDUSpot)+len(ev.RackWatts)+len(ev.OtherPDUWatts)); n > len(data) {
			t.Fatalf("decoded %d bytes of elements from %d bytes of input", n, len(data))
		}
		var j Journal
		again, err := appendSection(nil, &ev, &j.names)
		if err != nil {
			t.Fatalf("accepted section does not re-encode: %v", err)
		}
		var ev2 SlotEvent
		if err := readSection(again, &ev2); err != nil || !equalEvents(ev, ev2) {
			t.Fatalf("re-encoded section decodes differently (%v)", err)
		}
	})
}

// TestSectionDecodeRejectsHostileCounts spells out the pre-validation the
// fuzzer relies on: a count the remaining bytes cannot back is an error
// before any slice is sized from it.
func TestSectionDecodeRejectsHostileCounts(t *testing.T) {
	good := sectionOf(t, SlotEvent{
		BidSet:   []BidRecord{{Rack: 1, Tenant: "a", DMax: 1}},
		GrantSet: []GrantRecord{{Rack: 1, Watts: 2}},
	})
	var ev SlotEvent
	if err := readSection(good, &ev); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":          {},
		"bad-version":    append([]byte{9}, good[1:]...),
		"huge-names":     {sectionVersion, 0xff, 0xff, 0xff, 0xff},
		"huge-bids":      {sectionVersion, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff},
		"truncated":      good[:len(good)-3],
		"trailing":       append(append([]byte(nil), good...), 0),
		"bad-name-index": bytes.Replace(good, []byte{0, 0, 0, 1, 0, 0, 0, 0}, []byte{0, 0, 0, 1, 0, 0, 0, 7}, 1),
	} {
		var ev SlotEvent
		allocs := testing.AllocsPerRun(1, func() { _ = readSection(data, &ev) })
		if err := readSection(data, &ev); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if allocs > 8 {
			t.Errorf("%s: %.0f allocations on the way to the error", name, allocs)
		}
	}
	// And through the line reader: bad base64 or a bad section mid-file is
	// a hard error naming the line.
	bad := `{"slot":1,"price":0,"sold_watts":0,"revenue":0,"grants":0,"bids":0,"clear_us":0,"packed":"` +
		base64.StdEncoding.EncodeToString([]byte{sectionVersion, 0xff, 0xff, 0xff, 0xff}) + "\"}\n"
	if _, _, err := ReadJournal(strings.NewReader(bad + bad)); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("hostile packed line: err = %v", err)
	}
}
