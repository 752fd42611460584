// Package power models the tree-type power-delivery hierarchy of a
// multi-tenant data center (Fig. 1 of the SpotDC paper): one UPS feeding
// cluster-level PDUs, each PDU feeding tenant racks. It provides capacity
// accounting, oversubscription, spot-capacity measurement and conservative
// prediction (Section III-C), and emergency detection with circuit-breaker
// tolerance.
//
// All power quantities are in watts.
package power

import (
	"errors"
	"fmt"
	"math"
)

// ErrTopology reports an inconsistent data-center description.
var ErrTopology = errors.New("power: invalid topology")

// PDU describes one cluster-level power distribution unit.
type PDU struct {
	// ID names the PDU, e.g. "PDU#1".
	ID string
	// Capacity is the usable IT power capacity in watts. A typical cluster
	// PDU supports 200–300 kW; the paper's scaled-down testbed uses 715 W
	// and 724 W.
	Capacity float64
}

// Rack describes one tenant rack (in the paper's scaled-down testbed a
// single server stands in for a rack).
type Rack struct {
	// ID names the rack, e.g. "S-1".
	ID string
	// Tenant names the owning tenant; racks are never shared.
	Tenant string
	// PDU is the index into Topology.PDUs of the feeding PDU.
	PDU int
	// Guaranteed is the tenant's reserved (guaranteed) capacity for this
	// rack in watts.
	Guaranteed float64
	// SpotHeadroom is P_r^R: the maximum spot capacity the physical
	// rack-level PDU can deliver beyond the guaranteed capacity. Rack-level
	// capacity is cheap (US¢20–50/W) so a 20%+ margin is standard.
	SpotHeadroom float64
}

// Topology is an immutable description of the power-delivery tree.
type Topology struct {
	// UPSCapacity is the usable capacity at the shared UPS in watts.
	UPSCapacity float64
	// PDUs lists the cluster-level PDUs under the UPS.
	PDUs []PDU
	// Racks lists every rack; Rack.PDU indexes into PDUs.
	Racks []Rack

	racksByPDU [][]int
	rackIndex  map[string]int
}

// NewTopology validates and indexes a topology description.
func NewTopology(upsCapacity float64, pdus []PDU, racks []Rack) (*Topology, error) {
	if upsCapacity <= 0 {
		return nil, fmt.Errorf("%w: UPS capacity %v must be positive", ErrTopology, upsCapacity)
	}
	if len(pdus) == 0 {
		return nil, fmt.Errorf("%w: no PDUs", ErrTopology)
	}
	t := &Topology{
		UPSCapacity: upsCapacity,
		PDUs:        append([]PDU(nil), pdus...),
		Racks:       append([]Rack(nil), racks...),
		racksByPDU:  make([][]int, len(pdus)),
		rackIndex:   make(map[string]int, len(racks)),
	}
	seenPDU := make(map[string]bool, len(pdus))
	for i, p := range t.PDUs {
		if p.Capacity <= 0 {
			return nil, fmt.Errorf("%w: PDU %q capacity %v must be positive", ErrTopology, p.ID, p.Capacity)
		}
		if seenPDU[p.ID] {
			return nil, fmt.Errorf("%w: duplicate PDU ID %q", ErrTopology, p.ID)
		}
		seenPDU[p.ID] = true
		_ = i
	}
	for i, r := range t.Racks {
		if r.PDU < 0 || r.PDU >= len(t.PDUs) {
			return nil, fmt.Errorf("%w: rack %q references PDU %d of %d", ErrTopology, r.ID, r.PDU, len(t.PDUs))
		}
		if r.Guaranteed < 0 {
			return nil, fmt.Errorf("%w: rack %q guaranteed capacity %v negative", ErrTopology, r.ID, r.Guaranteed)
		}
		if r.SpotHeadroom < 0 {
			return nil, fmt.Errorf("%w: rack %q spot headroom %v negative", ErrTopology, r.ID, r.SpotHeadroom)
		}
		if _, dup := t.rackIndex[r.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate rack ID %q", ErrTopology, r.ID)
		}
		t.rackIndex[r.ID] = i
		t.racksByPDU[r.PDU] = append(t.racksByPDU[r.PDU], i)
	}
	return t, nil
}

// RacksOfPDU returns the indices of racks fed by PDU m. The returned slice
// must not be modified.
func (t *Topology) RacksOfPDU(m int) []int { return t.racksByPDU[m] }

// RackByID returns the index of the rack with the given ID.
func (t *Topology) RackByID(id string) (int, bool) {
	i, ok := t.rackIndex[id]
	return i, ok
}

// TotalGuaranteed sums the guaranteed capacity across all racks.
func (t *Topology) TotalGuaranteed() float64 {
	sum := 0.0
	for _, r := range t.Racks {
		sum += r.Guaranteed
	}
	return sum
}

// Reading is a snapshot of per-rack power at one instant, as collected by
// the operator's routine rack-level monitoring.
type Reading struct {
	// RackWatts has one measured power per rack, indexed like
	// Topology.Racks.
	RackWatts []float64
	// OtherPDUWatts is non-participating load attached directly at each PDU
	// that is not broken out into modeled racks (the "Other" rows of
	// Table I), indexed like Topology.PDUs.
	OtherPDUWatts []float64
}

// PDUPower returns the total power flowing through PDU m for this reading.
func (t *Topology) PDUPower(rd Reading, m int) float64 {
	sum := 0.0
	if m < len(rd.OtherPDUWatts) {
		sum += rd.OtherPDUWatts[m]
	}
	for _, r := range t.racksByPDU[m] {
		if r < len(rd.RackWatts) {
			sum += rd.RackWatts[r]
		}
	}
	return sum
}

// UPSPower returns the total power at the UPS for this reading.
func (t *Topology) UPSPower(rd Reading) float64 {
	sum := 0.0
	for m := range t.PDUs {
		sum += t.PDUPower(rd, m)
	}
	return sum
}

// Spot is the available spot capacity at every level for one time slot:
// P_m(t) per PDU and P_o(t) at the UPS.
type Spot struct {
	PDUWatts []float64
	UPSWatts float64
}

// PredictOptions tunes spot-capacity prediction.
type PredictOptions struct {
	// UnderPredictionFactor conservatively scales the predicted spot
	// capacity: 0.15 means the operator only offers 85% of what it
	// measured (Fig. 17). Must be in [0, 1).
	UnderPredictionFactor float64
	// SpotUsers marks racks currently using spot capacity or requesting it
	// for the next slot; their reference power is their guaranteed capacity
	// rather than their instantaneous usage (Section III-C).
	SpotUsers map[int]bool
}

// PredictSpot estimates the spot capacity available in the next slot from
// the current reading, exactly as Section III-C prescribes: subtract each
// rack's reference power (instantaneous usage, or guaranteed capacity for
// racks in the spot market) from the physical capacities, then apply the
// conservative under-prediction factor.
func (t *Topology) PredictSpot(rd Reading, opt PredictOptions) (Spot, error) {
	if opt.UnderPredictionFactor < 0 || opt.UnderPredictionFactor >= 1 {
		return Spot{}, fmt.Errorf("power: under-prediction factor %v outside [0,1)", opt.UnderPredictionFactor)
	}
	scale := 1 - opt.UnderPredictionFactor
	out := Spot{PDUWatts: make([]float64, len(t.PDUs))}
	upsRef := 0.0
	for m, p := range t.PDUs {
		ref := 0.0
		if m < len(rd.OtherPDUWatts) {
			ref += rd.OtherPDUWatts[m]
		}
		for _, r := range t.racksByPDU[m] {
			if opt.SpotUsers[r] {
				ref += t.Racks[r].Guaranteed
			} else if r < len(rd.RackWatts) {
				ref += rd.RackWatts[r]
			}
		}
		upsRef += ref
		avail := (p.Capacity - ref) * scale
		if avail < 0 {
			avail = 0
		}
		out.PDUWatts[m] = avail
	}
	out.UPSWatts = (t.UPSCapacity - upsRef) * scale
	if out.UPSWatts < 0 {
		out.UPSWatts = 0
	}
	return out, nil
}

// Emergency describes a capacity excursion at one level of the hierarchy.
type Emergency struct {
	// Level is "PDU" or "UPS".
	Level string
	// ID names the overloaded element.
	ID string
	// Load and Capacity are the measured power and the limit in watts.
	Load, Capacity float64
	// PDU is the index into Topology.PDUs of the overloaded PDU, or -1 for
	// a UPS-level emergency. CheckEmergencies fills it so responders can
	// map the excursion back to the racks that feed the element.
	PDU int
}

// OverloadFraction returns how far past capacity the element is, e.g. 0.03
// for a 3% excursion. Any load on an element with no capacity at all is an
// unbounded excursion, not a healthy one.
func (e Emergency) OverloadFraction() float64 {
	if e.Capacity <= 0 {
		if e.Load > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return e.Load/e.Capacity - 1
}

func (e Emergency) String() string {
	return fmt.Sprintf("%s %s overloaded: %.1f W of %.1f W (+%.1f%%)",
		e.Level, e.ID, e.Load, e.Capacity, 100*e.OverloadFraction())
}

// CheckEmergencies reports every PDU or UPS whose load exceeds its capacity
// by more than the circuit-breaker tolerance (a fraction, e.g. 0.05 for the
// short-term 5% excursion breakers ride through).
func (t *Topology) CheckEmergencies(rd Reading, breakerTolerance float64) []Emergency {
	var out []Emergency
	for m, p := range t.PDUs {
		load := t.PDUPower(rd, m)
		if load > p.Capacity*(1+breakerTolerance) {
			out = append(out, Emergency{Level: "PDU", ID: p.ID, Load: load, Capacity: p.Capacity, PDU: m})
		}
	}
	ups := t.UPSPower(rd)
	if ups > t.UPSCapacity*(1+breakerTolerance) {
		out = append(out, Emergency{Level: "UPS", ID: "UPS", Load: ups, Capacity: t.UPSCapacity, PDU: -1})
	}
	return out
}
