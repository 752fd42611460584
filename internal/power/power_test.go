package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// testbed mirrors Table I of the paper: PDU#1 at 715 W with four
// participating racks plus 250 W "other", PDU#2 at 724 W likewise.
func testbed(t *testing.T) *Topology {
	t.Helper()
	topo, err := NewTopology(1370,
		[]PDU{{ID: "PDU#1", Capacity: 715}, {ID: "PDU#2", Capacity: 724}},
		[]Rack{
			{ID: "S-1", Tenant: "Search-1", PDU: 0, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "S-2", Tenant: "Web", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "O-1", Tenant: "Count-1", PDU: 0, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-2", Tenant: "Graph-1", PDU: 0, Guaranteed: 115, SpotHeadroom: 50},
			{ID: "S-3", Tenant: "Search-2", PDU: 1, Guaranteed: 145, SpotHeadroom: 60},
			{ID: "O-3", Tenant: "Count-2", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-4", Tenant: "Sort", PDU: 1, Guaranteed: 125, SpotHeadroom: 60},
			{ID: "O-5", Tenant: "Graph-2", PDU: 1, Guaranteed: 115, SpotHeadroom: 50},
		})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewTopologyValidation(t *testing.T) {
	okPDUs := []PDU{{ID: "p", Capacity: 100}}
	cases := []struct {
		name  string
		ups   float64
		pdus  []PDU
		racks []Rack
	}{
		{"zero UPS", 0, okPDUs, nil},
		{"no PDUs", 100, nil, nil},
		{"zero PDU capacity", 100, []PDU{{ID: "p", Capacity: 0}}, nil},
		{"duplicate PDU", 100, []PDU{{ID: "p", Capacity: 1}, {ID: "p", Capacity: 1}}, nil},
		{"bad rack PDU index", 100, okPDUs, []Rack{{ID: "r", PDU: 3}}},
		{"negative rack PDU index", 100, okPDUs, []Rack{{ID: "r", PDU: -1}}},
		{"negative guaranteed", 100, okPDUs, []Rack{{ID: "r", Guaranteed: -1}}},
		{"negative headroom", 100, okPDUs, []Rack{{ID: "r", SpotHeadroom: -1}}},
		{"duplicate rack", 100, okPDUs, []Rack{{ID: "r"}, {ID: "r"}}},
	}
	for _, c := range cases {
		if _, err := NewTopology(c.ups, c.pdus, c.racks); !errors.Is(err, ErrTopology) {
			t.Errorf("%s: err = %v, want ErrTopology", c.name, err)
		}
	}
}

func TestTopologyIndexing(t *testing.T) {
	topo := testbed(t)
	if got := topo.RacksOfPDU(0); len(got) != 4 {
		t.Errorf("PDU#1 racks = %v, want 4", got)
	}
	if got := topo.RacksOfPDU(1); len(got) != 4 {
		t.Errorf("PDU#2 racks = %v, want 4", got)
	}
	i, ok := topo.RackByID("O-4")
	if !ok || topo.Racks[i].Tenant != "Sort" {
		t.Errorf("RackByID(O-4) = %d, %v", i, ok)
	}
	if _, ok := topo.RackByID("nope"); ok {
		t.Error("RackByID should miss unknown rack")
	}
}

func TestCapacityAccounting(t *testing.T) {
	topo := testbed(t)
	// Table I: PDU#1 participating subscriptions 145+115+125+115 = 500 W
	// plus 250 W other leased capacity is carried outside Racks here, so
	// A PDU's guarantee counts only modeled racks.
	if got := guaranteedOfPDU(topo, 0); got != 500 {
		t.Errorf("guaranteed on PDU 0 = %v, want 500", got)
	}
	if got := guaranteedOfPDU(topo, 1); got != 510 {
		t.Errorf("guaranteed on PDU 1 = %v, want 510", got)
	}
	if got := topo.TotalGuaranteed(); got != 1010 {
		t.Errorf("TotalGuaranteed = %v, want 1010", got)
	}
}

func TestPDUAndUPSPower(t *testing.T) {
	topo := testbed(t)
	rd := Reading{
		RackWatts:     []float64{100, 90, 80, 70, 110, 95, 85, 75},
		OtherPDUWatts: []float64{200, 210},
	}
	if got := topo.PDUPower(rd, 0); got != 100+90+80+70+200 {
		t.Errorf("PDUPower(0) = %v", got)
	}
	if got := topo.PDUPower(rd, 1); got != 110+95+85+75+210 {
		t.Errorf("PDUPower(1) = %v", got)
	}
	if got := topo.UPSPower(rd); got != 540+575 {
		t.Errorf("UPSPower = %v", got)
	}
}

func TestPDUPowerShortReading(t *testing.T) {
	topo := testbed(t)
	// Missing rack readings and other-loads are treated as zero rather than
	// panicking; a real deployment can always have monitoring gaps.
	rd := Reading{RackWatts: []float64{100}}
	if got := topo.PDUPower(rd, 0); got != 100 {
		t.Errorf("PDUPower with short reading = %v, want 100", got)
	}
	if got := topo.UPSPower(rd); got != 100 {
		t.Errorf("UPSPower with short reading = %v, want 100", got)
	}
}

func TestPredictSpot(t *testing.T) {
	topo := testbed(t)
	rd := Reading{
		RackWatts:     []float64{100, 90, 80, 70, 110, 95, 85, 75},
		OtherPDUWatts: []float64{200, 210},
	}
	spot, err := topo.PredictSpot(rd, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := spot.PDUWatts[0]; math.Abs(got-(715-540)) > 1e-9 {
		t.Errorf("PDU#1 spot = %v, want 175", got)
	}
	if got := spot.PDUWatts[1]; math.Abs(got-(724-575)) > 1e-9 {
		t.Errorf("PDU#2 spot = %v, want 149", got)
	}
	if got := spot.UPSWatts; math.Abs(got-(1370-1115)) > 1e-9 {
		t.Errorf("UPS spot = %v, want 255", got)
	}
}

func TestPredictSpotSpotUsersUseGuaranteedReference(t *testing.T) {
	topo := testbed(t)
	rd := Reading{
		RackWatts:     []float64{180, 90, 80, 70, 110, 95, 85, 75}, // S-1 is sprinting above its 145 W reservation
		OtherPDUWatts: []float64{200, 210},
	}
	spot, err := topo.PredictSpot(rd, PredictOptions{SpotUsers: map[int]bool{0: true}})
	if err != nil {
		t.Fatal(err)
	}
	// S-1's reference is its 145 W guarantee, not its 180 W instantaneous
	// draw, per Section III-C.
	want := 715.0 - (145 + 90 + 80 + 70 + 200)
	if math.Abs(spot.PDUWatts[0]-want) > 1e-9 {
		t.Errorf("PDU#1 spot = %v, want %v", spot.PDUWatts[0], want)
	}
}

func TestPredictSpotUnderPrediction(t *testing.T) {
	topo := testbed(t)
	rd := Reading{
		RackWatts:     []float64{100, 90, 80, 70, 110, 95, 85, 75},
		OtherPDUWatts: []float64{200, 210},
	}
	full, err := topo.PredictSpot(rd, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	under, err := topo.PredictSpot(rd, PredictOptions{UnderPredictionFactor: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for m := range full.PDUWatts {
		if math.Abs(under.PDUWatts[m]-0.85*full.PDUWatts[m]) > 1e-9 {
			t.Errorf("PDU %d under-predicted spot = %v, want %v", m, under.PDUWatts[m], 0.85*full.PDUWatts[m])
		}
	}
	if math.Abs(under.UPSWatts-0.85*full.UPSWatts) > 1e-9 {
		t.Errorf("UPS under-predicted = %v, want %v", under.UPSWatts, 0.85*full.UPSWatts)
	}
	if _, err := topo.PredictSpot(rd, PredictOptions{UnderPredictionFactor: 1}); err == nil {
		t.Error("factor 1 should be rejected")
	}
	if _, err := topo.PredictSpot(rd, PredictOptions{UnderPredictionFactor: -0.1}); err == nil {
		t.Error("negative factor should be rejected")
	}
}

func TestPredictSpotNeverNegative(t *testing.T) {
	topo := testbed(t)
	rd := Reading{
		RackWatts:     []float64{300, 300, 300, 300, 300, 300, 300, 300},
		OtherPDUWatts: []float64{400, 400},
	}
	spot, err := topo.PredictSpot(rd, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for m, w := range spot.PDUWatts {
		if w != 0 {
			t.Errorf("PDU %d overloaded but spot = %v, want 0", m, w)
		}
	}
	if spot.UPSWatts != 0 {
		t.Errorf("UPS overloaded but spot = %v, want 0", spot.UPSWatts)
	}
}

func TestCheckEmergencies(t *testing.T) {
	topo := testbed(t)
	calm := Reading{
		RackWatts:     []float64{100, 90, 80, 70, 110, 95, 85, 75},
		OtherPDUWatts: []float64{200, 210},
	}
	if em := topo.CheckEmergencies(calm, 0); em != nil {
		t.Errorf("calm reading flagged: %v", em)
	}
	hot := Reading{ // PDU#1 = 800 W > 715 W; PDU#2 = 420 W; UPS = 1220 W < 1370 W
		RackWatts:     []float64{150, 150, 150, 150, 80, 80, 80, 80},
		OtherPDUWatts: []float64{200, 100},
	}
	em := topo.CheckEmergencies(hot, 0)
	if len(em) != 1 || em[0].Level != "PDU" || em[0].ID != "PDU#1" {
		t.Fatalf("emergencies = %v", em)
	}
	if f := em[0].OverloadFraction(); f <= 0 {
		t.Errorf("overload fraction = %v, want > 0", f)
	}
	if em[0].String() == "" {
		t.Error("String should describe the emergency")
	}
	// Breaker tolerance rides through small excursions.
	slight := Reading{
		RackWatts:     []float64{145, 120, 130, 125, 110, 95, 85, 75},
		OtherPDUWatts: []float64{200, 210}, // PDU#1 at 730 W = 2.1% over
	}
	if e := topo.CheckEmergencies(slight, 0.05); e != nil {
		t.Errorf("2%% excursion should be within 5%% breaker tolerance: %v", e)
	}
	if e := topo.CheckEmergencies(slight, 0); len(e) != 1 {
		t.Errorf("2%% excursion with zero tolerance should trip: %v", e)
	}
}

func TestUPSEmergency(t *testing.T) {
	topo := testbed(t)
	// Keep each PDU under its own cap but exceed the UPS: PDU capacities sum
	// to 1439 > 1370 UPS capacity (both 5% oversubscribed).
	rd := Reading{
		RackWatts:     []float64{140, 110, 120, 110, 140, 120, 120, 110},
		OtherPDUWatts: []float64{230, 230}, // PDU#1 = 710, PDU#2 = 720, UPS = 1430
	}
	em := topo.CheckEmergencies(rd, 0)
	if len(em) != 1 || em[0].Level != "UPS" {
		t.Fatalf("emergencies = %v, want single UPS emergency", em)
	}
}

func TestEmergencyZeroCapacity(t *testing.T) {
	// Any load on a zero-capacity element is an unbounded excursion; it
	// must rank above every finite overload, never read as "no overload".
	e := Emergency{Load: 10, Capacity: 0}
	if f := e.OverloadFraction(); !math.IsInf(f, 1) {
		t.Errorf("OverloadFraction with zero capacity = %v, want +Inf", f)
	}
	idle := Emergency{Load: 0, Capacity: 0}
	if f := idle.OverloadFraction(); f != 0 {
		t.Errorf("OverloadFraction with zero load and capacity = %v, want 0", f)
	}
}

// Property: predicted spot capacity never exceeds physical headroom and the
// under-prediction factor only ever shrinks it.
func TestQuickPredictSpotBounds(t *testing.T) {
	topo := testbed(t)
	f := func(raw [8]uint16, other1, other2 uint16, factorPct uint8) bool {
		rd := Reading{RackWatts: make([]float64, 8), OtherPDUWatts: []float64{float64(other1 % 500), float64(other2 % 500)}}
		for i, v := range raw {
			rd.RackWatts[i] = float64(v % 400)
		}
		factor := float64(factorPct%100) / 100
		full, err := topo.PredictSpot(rd, PredictOptions{})
		if err != nil {
			return false
		}
		scaled, err := topo.PredictSpot(rd, PredictOptions{UnderPredictionFactor: factor})
		if err != nil {
			return false
		}
		for m := range topo.PDUs {
			if full.PDUWatts[m] < 0 || full.PDUWatts[m] > topo.PDUs[m].Capacity {
				return false
			}
			if scaled.PDUWatts[m] > full.PDUWatts[m]+1e-9 {
				return false
			}
		}
		return full.UPSWatts >= 0 && full.UPSWatts <= topo.UPSCapacity &&
			scaled.UPSWatts <= full.UPSWatts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// guaranteedOfPDU sums the guaranteed capacity leased on PDU m.
func guaranteedOfPDU(t *Topology, m int) float64 {
	sum := 0.0
	for _, r := range t.RacksOfPDU(m) {
		sum += t.Racks[r].Guaranteed
	}
	return sum
}
