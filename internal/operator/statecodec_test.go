package operator

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"spotdc/internal/binenc"
	"spotdc/internal/stats"
)

// hardFloats are the bit patterns a decimal round trip is most likely to
// lose; the binary encoding carries all of them.
var hardFloats = []float64{
	0, math.Copysign(0, -1), 0.1, 1.0 / 3, 1e-300, math.SmallestNonzeroFloat64,
	math.MaxFloat64, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
}

func hardFloat(i int) float64 {
	if i%7 == 0 {
		return hardFloats[(i/7)%len(hardFloats)]
	}
	return 0.0375 * float64(i) / 1000 * (2.0 / 60)
}

// bitsEqual is reflect.DeepEqual with float64s compared by bit pattern.
func bitsEqual(a, b interface{}) bool {
	return reflect.DeepEqual(floatBits(reflect.ValueOf(a)), floatBits(reflect.ValueOf(b)))
}

func floatBits(v reflect.Value) interface{} {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return floatBits(v.Elem())
	case reflect.Slice:
		if v.Len() == 0 {
			return nil
		}
		out := make([]interface{}, v.Len())
		for i := range out {
			out[i] = floatBits(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := make(map[string]interface{}, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			out[v.Type().Field(i).Name] = floatBits(v.Field(i))
		}
		return out
	default:
		return v.Interface()
	}
}

func responder15k(racks int) *ResponderCheckpoint {
	rc := &ResponderCheckpoint{
		SuspendedPDU: make([]bool, 150), CalmPDU: make([]int, 150), StartPDU: make([]int, 150),
		SuspendedUPS: true, CalmUPS: 2, StartUPS: -1,
		LastGrants: make([]float64, racks),
		Acted:      7, ReclaimedWatts: 1234.5, GuaranteedWatts: math.Copysign(0, -1), Involuntary: 3,
	}
	for i := range rc.SuspendedPDU {
		rc.SuspendedPDU[i], rc.CalmPDU[i], rc.StartPDU[i] = i%3 == 0, i%5, 1000+i
	}
	for i := range rc.LastGrants {
		rc.LastGrants[i] = hardFloat(i)
	}
	return rc
}

// TestSlotCommitBinaryRoundTrip15000Racks: a paper-scale commit — 15,000
// payment rows over many tenants (far more than RunSlot's one per tenant),
// 15,000 grant weights, hostile float bit patterns throughout — survives
// encode → decode bit for bit, through a reused writer table and a reused
// decode target.
func TestSlotCommitBinaryRoundTrip15000Racks(t *testing.T) {
	const racks = 15000
	c := SlotCommit{
		Revenue: 1.0 / 3, EnergyKWh: math.SmallestNonzeroFloat64, Slots: 1 << 40, EmergencySlots: 9,
		SpotPDU: make([]float64, 150), SpotUPS: 612345.25,
		Payments:  make([]PaymentDelta, racks),
		Responder: responder15k(racks),
	}
	for i := range c.SpotPDU {
		c.SpotPDU[i] = hardFloat(i + 1)
	}
	for i := range c.Payments {
		tenant := fmt.Sprintf("tenant-%d", i/40)
		if i%97 == 0 {
			tenant = "" // the unattributed book
		}
		c.Payments[i] = PaymentDelta{Tenant: tenant, Amount: hardFloat(i)}
	}
	var names binenc.Names
	var buf []byte
	var decoded SlotCommit
	for round := 0; round < 2; round++ { // second round reuses every buffer
		var err error
		if buf, err = c.AppendBinary(buf[:0], &names); err != nil {
			t.Fatal(err)
		}
		if err := decoded.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(decoded, c) {
			t.Fatalf("round %d: decoded commit differs", round)
		}
	}
	if perRack := float64(len(buf)) / racks; perRack > 24 {
		t.Errorf("commit is %d bytes, %.1f B/rack; the layout promises ≈ 20", len(buf), perRack)
	}
	// Without a responder, and empty: the degenerate shapes.
	for _, c := range []SlotCommit{{}, {Slots: 3, SpotPDU: []float64{1}, Payments: []PaymentDelta{{Amount: 2}}}} {
		data, err := c.AppendBinary(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var back SlotCommit
		if err := back.UnmarshalBinary(data); err != nil || !bitsEqual(back, c) {
			t.Fatalf("commit %+v round-trips to %+v (%v)", c, back, err)
		}
	}
}

// TestCheckpointBinaryRoundTrip15000Racks: every Neumaier (sum, comp) pair
// of a 15,000-tenant checkpoint — built by real compensated accumulation,
// so the comp terms are the awkward residues the scheme exists for — comes
// back bit-identical, and a restored accumulator continues identically.
func TestCheckpointBinaryRoundTrip15000Racks(t *testing.T) {
	const racks = 15000
	cp := Checkpoint{
		Slots: 123456, EmergencySlots: 12, LastSpotUPS: 1e-7,
		LastSpotPDU: []float64{715, math.Copysign(0, -1), 1.0 / 3},
		Payments:    make([]TenantPayment, racks),
		Responder:   responder15k(racks),
	}
	var total stats.Neumaier
	for i := range cp.Payments {
		var acc stats.Neumaier
		for k := 0; k < 8; k++ {
			term := math.Pow(10, float64(k%5-2)*3) * (1 + float64(i)/7)
			acc.Add(term)
			total.Add(term)
		}
		cp.Payments[i] = TenantPayment{Tenant: fmt.Sprintf("tenant-%05d", i), Paid: ExportNeumaier(acc)}
	}
	cp.SpotRevenue = ExportNeumaier(total)
	cp.SpotEnergyKWh = NeumaierState{Sum: 1e16, Comp: -0.4999999}
	cp.Unattributed = NeumaierState{Sum: math.Copysign(0, -1), Comp: math.SmallestNonzeroFloat64}
	if cp.SpotRevenue.Comp == 0 {
		t.Fatal("fixture too tame: no compensation term to lose")
	}
	data, err := cp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(back, cp) {
		t.Fatal("decoded checkpoint differs")
	}
	a, b := cp.SpotRevenue.Restore(), back.SpotRevenue.Restore()
	a.Add(1e-9)
	b.Add(1e-9)
	if math.Float64bits(a.Sum()) != math.Float64bits(b.Sum()) {
		t.Fatal("restored accumulator diverges on the next Add")
	}
}

// TestStateCodecRejectsHostileBytes: versions, flag bits, counts the input
// cannot back, out-of-range indices, trailing bytes — all errors, none of
// them sized from a hostile count first.
func TestStateCodecRejectsHostileBytes(t *testing.T) {
	commit := SlotCommit{Slots: 1, SpotPDU: []float64{5}, Payments: []PaymentDelta{{Tenant: "a", Amount: 1}},
		Responder: &ResponderCheckpoint{SuspendedPDU: []bool{true}, CalmPDU: []int{1}, StartPDU: []int{2}, LastGrants: []float64{3}}}
	good, err := commit.AppendBinary(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{Slots: 1, Payments: []TenantPayment{{Tenant: "a"}}}
	goodCP, err := cp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(b []byte, at int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[at] = v
		return out
	}
	// Offsets into the commit: [0] version [1] flags, 5×8 scalars end at 42,
	// spot_pdu count at 42, names count at 54.
	for name, data := range map[string][]byte{
		"empty":            {},
		"bad-version":      mutate(good, 0, 9),
		"unknown-flag":     mutate(good, 1, 0x81),
		"huge-spot-count":  mutate(good, 42, 0xff),
		"huge-names-count": mutate(good, 54, 0x7f),
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte(nil), good...), 0),
		"bad-bool":         mutate(good, len(good)-1-(4+8)-(4+8)-(4+8), 2),
	} {
		var c SlotCommit
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("commit %s: accepted", name)
		}
	}
	for name, data := range map[string][]byte{
		"bad-version": mutate(goodCP, 0, 0),
		"huge-count":  mutate(goodCP, 2+2*8+7*8+4, 0xff),
		"trailing":    append(append([]byte(nil), goodCP...), 0),
		"json":        []byte(`{"slots":1}`),
	} {
		var c Checkpoint
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("checkpoint %s: accepted", name)
		}
	}
	// A payment naming a tenant outside the record's table.
	idx := strings.Index(string(good), "a") + 1 + 4 // past the name and the payment count
	var c SlotCommit
	if err := c.UnmarshalBinary(mutate(good, idx+3, 5)); err == nil || !strings.Contains(err.Error(), "names tenant") {
		t.Errorf("out-of-range tenant index: err = %v", err)
	}
	// A name too long for its u16 prefix is an encode error, not a wrap.
	long := SlotCommit{Payments: []PaymentDelta{{Tenant: strings.Repeat("x", 1<<16)}}}
	if _, err := long.AppendBinary(nil, nil); err == nil {
		t.Error("64 KiB tenant name encoded")
	}
}

// TestLastSlotCommitBorrowsScratch pins the lending rule documented on
// SlotCommit: the commit is valid until the next RunSlot or LastSlotCommit,
// which reuse its storage instead of allocating.
func TestLastSlotCommitBorrowsScratch(t *testing.T) {
	op := newDurableEmergencyOp(t)
	first := driveSlot(t, op, 0, true)
	if len(first.Payments) == 0 || first.Responder == nil {
		t.Fatalf("fixture slot sold nothing: %+v", first)
	}
	second := driveSlot(t, op, 1, true)
	if &first.Payments[0] != &second.Payments[0] || first.Responder != second.Responder {
		t.Error("LastSlotCommit allocated fresh storage instead of lending its scratch")
	}
}
