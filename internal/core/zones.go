package core

import "fmt"

// The paper notes (Section III-A) that further practical constraints —
// heat density (limiting server power over an area to bound the cooling
// load) and phase balance (keeping the three phases of a PDU/UPS within a
// tolerance of each other) — can be incorporated into spot capacity
// allocation following the power-routing model [9]. This file adds both as
// optional extensions of Constraints: once installed with SetExtras they are
// part of the constraint set Clear searches under and VerifyExtras (and the
// inline Auditor) checks. They do not participate in rationing, ClearPerPDU
// or MaxPerf.

// Zone is a heat-density (cooling) constraint: the summed spot capacity
// granted to its racks must not exceed MaxWatts, independent of PDU
// membership.
type Zone struct {
	// Name labels the zone (e.g. a row or cold aisle).
	Name string
	// Racks lists the member rack indices.
	Racks []int
	// MaxWatts is the zone's spot-capacity limit in watts.
	MaxWatts float64
}

// PhaseOf maps racks to the electrical phase (0, 1 or 2) feeding them.
// Three-phase balance is enforced per PDU.
type PhaseOf []int

// Extras carries the optional Section III-A constraints.
type Extras struct {
	// Zones lists heat-density constraints.
	Zones []Zone
	// RackPhase assigns each rack a phase 0–2; nil disables phase checks.
	RackPhase PhaseOf
	// PhaseImbalance is the tolerated fractional deviation of any phase's
	// spot allocation from the per-PDU phase mean (e.g. 0.2 allows a phase
	// to carry up to 120% of the mean). Values ≤ 0 default to 0.25.
	PhaseImbalance float64
}

func (e *Extras) imbalance() float64 {
	if e.PhaseImbalance <= 0 {
		return 0.25
	}
	return e.PhaseImbalance
}

// validateExtras checks extras against the base constraints.
func (c Constraints) validateExtras(e *Extras) error {
	if e == nil {
		return nil
	}
	for zi, z := range e.Zones {
		if z.MaxWatts < 0 {
			return fmt.Errorf("%w: zone %d (%s) max %v negative", ErrConstraints, zi, z.Name, z.MaxWatts)
		}
		for _, r := range z.Racks {
			if r < 0 || r >= len(c.RackHeadroom) {
				return fmt.Errorf("%w: zone %d (%s) references rack %d of %d",
					ErrConstraints, zi, z.Name, r, len(c.RackHeadroom))
			}
		}
	}
	if e.RackPhase != nil {
		if len(e.RackPhase) != len(c.RackHeadroom) {
			return fmt.Errorf("%w: %d phase assignments for %d racks",
				ErrConstraints, len(e.RackPhase), len(c.RackHeadroom))
		}
		for r, ph := range e.RackPhase {
			if ph < 0 || ph > 2 {
				return fmt.Errorf("%w: rack %d assigned phase %d (want 0-2)", ErrConstraints, r, ph)
			}
		}
	}
	return nil
}

// SetExtras installs (or clears, with nil) the optional constraints. While
// installed, every Clear honours them: prices are searched on the PriceStep
// grid (Result.Algorithm is AlgorithmScan whatever Options.Algorithm says,
// because zone/phase feasibility is not monotone in price and can change
// strictly inside a breakpoint segment), and clearing is strict even when
// Options.Ration is set — no price is accepted unless the un-rationed
// grants fit Eqns. (2)–(4) and the extras.
func (m *Market) SetExtras(e *Extras) error {
	if err := m.cons.validateExtras(e); err != nil {
		return err
	}
	if e != nil {
		cp := *e
		cp.Zones = append([]Zone(nil), e.Zones...)
		if e.RackPhase != nil {
			cp.RackPhase = append(PhaseOf(nil), e.RackPhase...)
		}
		m.extras = &cp
	} else {
		m.extras = nil
	}
	return nil
}

// extrasViolation locates the first zone or phase limit an allocation
// breaks (zone < 0 means the phase fields apply).
type extrasViolation struct {
	zone, pdu, phase int
	load, limit      float64
}

// checkExtras tests an allocation against the installed zone and phase
// constraints using market-owned scratch, so the scan can call it per grid
// price without allocating. ok is true when nothing is violated. Callers
// guarantee extras are installed and every allocation's rack is in range.
func (m *Market) checkExtras(allocs []Allocation) (v extrasViolation, ok bool) {
	e := m.extras
	if len(e.Zones) > 0 {
		rackGrant := f64s(m.rackLoad, len(m.cons.RackHeadroom))
		m.rackLoad = rackGrant
		clear(rackGrant)
		for _, a := range allocs {
			rackGrant[a.Rack] += a.Watts
		}
		for zi, z := range e.Zones {
			load := 0.0
			for _, r := range z.Racks {
				load += rackGrant[r]
			}
			if load > z.MaxWatts+feasEps {
				return extrasViolation{zone: zi, load: load, limit: z.MaxWatts}, false
			}
		}
	}
	if e.RackPhase != nil {
		// Phase load per PDU: index pdu*3+phase.
		loads := f64s(m.phaseLoad, len(m.cons.PDUSpot)*3)
		m.phaseLoad = loads
		clear(loads)
		for _, a := range allocs {
			loads[m.cons.RackPDU[a.Rack]*3+e.RackPhase[a.Rack]] += a.Watts
		}
		tol := e.imbalance()
		for pdu := 0; pdu < len(m.cons.PDUSpot); pdu++ {
			ph := loads[pdu*3 : pdu*3+3]
			mean := (ph[0] + ph[1] + ph[2]) / 3
			if mean <= feasEps {
				continue
			}
			limit := mean * (1 + tol)
			for i, w := range ph {
				if w > limit+feasEps {
					return extrasViolation{zone: -1, pdu: pdu, phase: i, load: w, limit: limit}, false
				}
			}
		}
	}
	return v, true
}

// VerifyExtras confirms an allocation against the installed zone and phase
// constraints (no-op when none are installed).
func (m *Market) VerifyExtras(allocs []Allocation) error {
	if m.extras == nil {
		return nil
	}
	for _, a := range allocs {
		if a.Rack < 0 || a.Rack >= len(m.cons.RackHeadroom) {
			return fmt.Errorf("%w: allocation for rack %d of %d", ErrConstraints, a.Rack, len(m.cons.RackHeadroom))
		}
	}
	v, ok := m.checkExtras(allocs)
	switch {
	case ok:
		return nil
	case v.zone >= 0:
		return fmt.Errorf("core: zone %d (%s) allocated %v W beyond %v W (heat density)",
			v.zone, m.extras.Zones[v.zone].Name, v.load, v.limit)
	default:
		return fmt.Errorf("core: PDU %d phase %d carries %v W, beyond %v W (balance tolerance %v)",
			v.pdu, v.phase, v.load, v.limit, m.extras.imbalance())
	}
}
