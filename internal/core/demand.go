// Package core implements the SpotDC market itself — the paper's primary
// contribution: rack-level demand-function bidding (Section III-B) and
// uniform-price market clearing under the multi-level power capacity
// constraints of Eqns. (2)–(4), plus the two baselines the evaluation
// compares against (PowerCapped and MaxPerf) and the alternative demand
// functions (StepBid, FullBid) of Section V-C.
//
// Prices are in $/kW·h, demands in watts.
package core

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBid reports an invalid demand-function specification.
var ErrBid = errors.New("core: invalid bid")

// DemandFunc captures how much spot capacity a rack wants as a function of
// the uniform market price. Demand must be non-increasing in price.
type DemandFunc interface {
	// Demand returns the requested spot capacity in watts at the given
	// price ($/kW·h). It must be non-negative and non-increasing in price.
	Demand(price float64) float64
	// MaxDemand returns the demand at price zero.
	MaxDemand() float64
	// MaxPrice returns the highest price at which demand is still positive;
	// above it the demand is zero.
	MaxPrice() float64
}

// Breakpointer is the optional structural interface behind exact
// (breakpoint-driven) market clearing. A demand function that is piece-wise
// linear in price exposes the prices at which its slope changes:
//
//   - Breakpoints returns the slope-change prices in ascending order;
//   - below the first breakpoint the demand is constant at MaxDemand();
//   - between consecutive breakpoints the demand is affine in price;
//   - the last breakpoint equals MaxPrice(), and above it demand is zero.
//
// All three built-in demand functions (LinearBid, StepBid, FullBid)
// implement it. Bids whose demand function does not implement Breakpointer
// force Market.Clear to fall back to the grid-scan algorithm, which needs
// no structural knowledge.
type Breakpointer interface {
	// Breakpoints returns the ascending prices at which the piece-wise
	// linear demand curve changes slope (including its MaxPrice).
	Breakpoints() []float64
}

// LinearBid is the paper's piece-wise linear demand function (Fig. 3(a)),
// uniquely determined by the four solicited parameters
// b_r = {(Dmax, qmin), (Dmin, qmax)}:
//
//   - price ≤ QMin:         demand = DMax (horizontal segment)
//   - QMin < price ≤ QMax:  demand falls linearly from DMax to DMin
//   - price > QMax:         demand = 0 (vertical segment at QMax)
//
// Setting DMax == DMin or QMin == QMax degenerates to a step bid.
type LinearBid struct {
	// DMax and DMin are the maximum and minimum spot-capacity demands in
	// watts; DMax ≥ DMin ≥ 0.
	DMax, DMin float64
	// QMin and QMax are the prices ($/kW·h) delimiting the linear segment;
	// QMax ≥ QMin ≥ 0. QMax is the tenant's maximum acceptable price.
	QMin, QMax float64
}

// Validate checks the four-parameter constraints.
func (b LinearBid) Validate() error {
	switch {
	case b.DMin < 0:
		return fmt.Errorf("%w: DMin %v negative", ErrBid, b.DMin)
	case b.DMax < b.DMin:
		return fmt.Errorf("%w: DMax %v below DMin %v", ErrBid, b.DMax, b.DMin)
	case b.QMin < 0:
		return fmt.Errorf("%w: QMin %v negative", ErrBid, b.QMin)
	case b.QMax < b.QMin:
		return fmt.Errorf("%w: QMax %v below QMin %v", ErrBid, b.QMax, b.QMin)
	}
	return nil
}

// Demand implements DemandFunc.
func (b LinearBid) Demand(price float64) float64 {
	switch {
	case price > b.QMax:
		return 0
	case price <= b.QMin || b.QMax == b.QMin:
		return b.DMax
	default:
		frac := (price - b.QMin) / (b.QMax - b.QMin)
		return b.DMax + frac*(b.DMin-b.DMax)
	}
}

// MaxDemand implements DemandFunc.
func (b LinearBid) MaxDemand() float64 { return b.DMax }

// MaxPrice implements DemandFunc.
func (b LinearBid) MaxPrice() float64 { return b.QMax }

// Breakpoints implements Breakpointer: the demand is constant below QMin,
// affine on [QMin, QMax] and zero above QMax.
func (b LinearBid) Breakpoints() []float64 {
	if b.QMin == b.QMax {
		return []float64{b.QMax}
	}
	return []float64{b.QMin, b.QMax}
}

// StepBid is the Amazon-spot-style step demand function: a fixed demand D
// for any price up to QMax, and zero above. It cannot express demand
// elasticity, which is exactly the deficiency Fig. 14 quantifies.
type StepBid struct {
	// D is the fixed spot-capacity demand in watts.
	D float64
	// QMax is the maximum acceptable price ($/kW·h).
	QMax float64
}

// Demand implements DemandFunc.
func (b StepBid) Demand(price float64) float64 {
	if price > b.QMax {
		return 0
	}
	return b.D
}

// MaxDemand implements DemandFunc.
func (b StepBid) MaxDemand() float64 { return b.D }

// MaxPrice implements DemandFunc.
func (b StepBid) MaxPrice() float64 { return b.QMax }

// Breakpoints implements Breakpointer: a single step down to zero at QMax.
func (b StepBid) Breakpoints() []float64 { return []float64{b.QMax} }

// PricePoint is one (price, demand) sample of a full demand curve.
type PricePoint struct {
	Price  float64 // $/kW·h
	Demand float64 // watts
}

// FullBid is the complete demand curve alternative of Section V-C: the
// tenant reports its demand at many prices and the operator interpolates
// linearly between them. It extracts the most elasticity but is impractical
// to solicit at scale; SpotDC's LinearBid is the midpoint between it and
// StepBid.
type FullBid struct {
	points []PricePoint
}

// NewFullBid builds a FullBid from samples of the demand curve. Points are
// sorted by price; demand must be non-increasing in price and non-negative.
func NewFullBid(points []PricePoint) (*FullBid, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: full bid needs at least one point", ErrBid)
	}
	ps := append([]PricePoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Price < ps[j].Price })
	for i, p := range ps {
		if p.Price < 0 {
			return nil, fmt.Errorf("%w: price %v negative", ErrBid, p.Price)
		}
		if p.Demand < 0 {
			return nil, fmt.Errorf("%w: demand %v negative", ErrBid, p.Demand)
		}
		if i > 0 {
			if ps[i-1].Price == p.Price {
				return nil, fmt.Errorf("%w: duplicate price %v", ErrBid, p.Price)
			}
			if p.Demand > ps[i-1].Demand {
				return nil, fmt.Errorf("%w: demand increases from %v to %v at price %v",
					ErrBid, ps[i-1].Demand, p.Demand, p.Price)
			}
		}
	}
	return &FullBid{points: ps}, nil
}

// Demand implements DemandFunc: below the first sampled price the demand is
// the first point's demand; between samples it interpolates linearly; above
// the last sampled price it is zero.
func (b *FullBid) Demand(price float64) float64 {
	ps := b.points
	if price <= ps[0].Price {
		return ps[0].Demand
	}
	last := ps[len(ps)-1]
	if price > last.Price {
		return 0
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Price >= price })
	// ps[i-1].Price < price <= ps[i].Price.
	lo, hi := ps[i-1], ps[i]
	frac := (price - lo.Price) / (hi.Price - lo.Price)
	return lo.Demand + frac*(hi.Demand-lo.Demand)
}

// MaxDemand implements DemandFunc.
func (b *FullBid) MaxDemand() float64 { return b.points[0].Demand }

// MaxPrice implements DemandFunc.
func (b *FullBid) MaxPrice() float64 { return b.points[len(b.points)-1].Price }

// Breakpoints implements Breakpointer: every sampled price is a potential
// slope change.
func (b *FullBid) Breakpoints() []float64 {
	out := make([]float64, len(b.points))
	for i, p := range b.points {
		out[i] = p.Price
	}
	return out
}

// Bid pairs one rack with its demand function for the next time slot.
type Bid struct {
	// Rack is the rack index within the market's Constraints.
	Rack int
	// Tenant identifies the bidding tenant (informational; used by billing).
	Tenant string
	// Fn is the rack's demand function.
	Fn DemandFunc
}

// Bundle builds the per-rack linear bids of a tenant's multi-rack
// (bundled) demand (Section III-B3, Fig. 4): the tenant decides a maximum
// demand vector at price qmin and a minimum demand vector at price qmax,
// and the two are joined affinely, one LinearBid per rack sharing the same
// price pair.
func Bundle(tenant string, racks []int, dMax, dMin []float64, qMin, qMax float64) ([]Bid, error) {
	if len(racks) != len(dMax) || len(racks) != len(dMin) {
		return nil, fmt.Errorf("%w: bundle length mismatch: %d racks, %d dMax, %d dMin",
			ErrBid, len(racks), len(dMax), len(dMin))
	}
	out := make([]Bid, 0, len(racks))
	for i, r := range racks {
		lb := LinearBid{DMax: dMax[i], DMin: dMin[i], QMin: qMin, QMax: qMax}
		if err := lb.Validate(); err != nil {
			return nil, fmt.Errorf("rack %d: %w", r, err)
		}
		out = append(out, Bid{Rack: r, Tenant: tenant, Fn: lb})
	}
	return out, nil
}

// AggregateDemand sums the demand of all bids at the given price, the
// quantity plotted in Fig. 3(b).
func AggregateDemand(bids []Bid, price float64) float64 {
	sum := 0.0
	for _, b := range bids {
		sum += b.Fn.Demand(price)
	}
	return sum
}
