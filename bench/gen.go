package main

import (
	"fmt"
	"math"
	"math/rand"

	"spotdc/internal/power"
	"spotdc/internal/proto"
)

// Fixed shape of the synthetic data center (ISSUE 14): every rack leases
// 120 W with 60 W of rack-level headroom, 50 racks share a 7.5 kW PDU, and
// the UPS is oversubscribed 1.05× against the PDUs. With every rack bidding
// (reference power = guarantee) that leaves 1,500 W of spot per PDU but only
// ≈1,143 W per PDU at the UPS, so the UPS constraint binds on aggregate and
// the PDU constraint binds under the heavier-bidding PDUs: the clearing
// price moves with the per-slot demand factor.
const (
	racksPerPDU     = 50
	rackGuaranteedW = 120.0
	rackHeadroomW   = 60.0
	pduCapacityW    = 7500.0
	upsOversub      = 1.05
	readingFraction = 0.75
	tenantCount     = 2
)

// inputs is everything the generator hands the program under test: rack
// and PDU descriptions, each tenant's base bid set, and the power reading.
// The seed reaches nothing else.
type inputs struct {
	seed    int64
	ups     float64
	pdus    []power.PDU
	racks   []power.Rack
	reading power.Reading
	// tenants[i] names tenant i; rackIDs[i] and bids[i] are its racks and
	// its base (factor 1.0) demand functions, in rack order.
	tenants []string
	rackIDs [][]string
	bids    [][]proto.RackBid
}

// generate builds the market for a seed. Bid parameters follow the
// syntheticMarket ranges of the repo's bench_test.go (DMax 20–60 W, DMin
// 0–5 W, QMin 0.02–0.12, QMax 0.16–0.66 $/kW·h), drawn from the seed and
// rounded so a 7,500-bid JSON message stays well under proto.MaxLineBytes.
// Rack IDs are 6 bytes for the same reason.
func generate(seed int64, racks int) (*inputs, error) {
	if racks <= 0 || racks%(racksPerPDU*tenantCount) != 0 {
		return nil, fmt.Errorf("racks %d must be a positive multiple of %d", racks, racksPerPDU*tenantCount)
	}
	rng := rand.New(rand.NewSource(seed))
	nPDU := racks / racksPerPDU
	in := &inputs{
		seed:  seed,
		ups:   float64(nPDU) * pduCapacityW / upsOversub,
		pdus:  make([]power.PDU, nPDU),
		racks: make([]power.Rack, racks),
		reading: power.Reading{
			RackWatts:     make([]float64, racks),
			OtherPDUWatts: make([]float64, nPDU),
		},
		tenants: make([]string, tenantCount),
		rackIDs: make([][]string, tenantCount),
		bids:    make([][]proto.RackBid, tenantCount),
	}
	for m := range in.pdus {
		in.pdus[m] = power.PDU{ID: fmt.Sprintf("p%04d", m), Capacity: pduCapacityW}
	}
	perTenant := racks / tenantCount
	for t := range in.tenants {
		in.tenants[t] = fmt.Sprintf("tenant-%d", t)
	}
	for i := range in.racks {
		t := i / perTenant
		id := fmt.Sprintf("r%05d", i)
		in.racks[i] = power.Rack{
			ID: id, Tenant: in.tenants[t], PDU: i / racksPerPDU,
			Guaranteed: rackGuaranteedW, SpotHeadroom: rackHeadroomW,
		}
		in.reading.RackWatts[i] = readingFraction * rackGuaranteedW
		v := rng.Float64()
		in.rackIDs[t] = append(in.rackIDs[t], id)
		in.bids[t] = append(in.bids[t], proto.RackBid{
			Rack: id,
			DMax: round(20+40*v, 2),
			DMin: round(5*v, 2),
			QMin: round(0.02+0.1*v, 4),
			QMax: round(0.16+0.5*v, 4),
		})
	}
	return in, nil
}

func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// slotFactor is tenant t's demand scale for a slot, uniform in [0.8, 1.2),
// a pure function of (seed, slot, tenant) so any run of one seed bids the
// same at the same slot index however many slots it gets through.
func (in *inputs) slotFactor(slot, tenant int) float64 {
	x := uint64(in.seed)*0x9e3779b97f4a7c15 + uint64(slot)*0xbf58476d1ce4e5b9 + uint64(tenant)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 0.8 + 0.4*float64(x>>11)/float64(1<<53)
}

// scaleBids writes tenant t's bids for the slot into dst: the base demand
// watts times the slot factor, prices untouched.
func (in *inputs) scaleBids(dst []proto.RackBid, slot, tenant int) []proto.RackBid {
	f := in.slotFactor(slot, tenant)
	dst = append(dst[:0], in.bids[tenant]...)
	for i := range dst {
		dst[i].DMax *= f
		dst[i].DMin *= f
	}
	return dst
}
