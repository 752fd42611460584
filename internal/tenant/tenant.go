// Package tenant implements the tenant side of SpotDC: agents that decide
// when to participate, how to translate their private power-performance
// models into the four-parameter rack-level demand functions of
// Section III-B, and how to run their workloads under whatever spot
// capacity the market grants.
//
// Three bidding policies from the paper are provided:
//
//   - PolicySimple — the paper's simple strategy (Section III-B3): bid the
//     needed extra power with DMax = DMin at a fixed maximum price.
//   - PolicyElastic — the SpotDC default: a piece-wise linear demand
//     function approximating the tenant's true (gain-derived) demand curve.
//   - PolicyStep / PolicyFull — the StepBid and FullBid alternatives used
//     in the Fig. 14 comparison.
//   - PolicyPricePredict — the Fig. 16 strategic variant where sprinting
//     tenants bid with (near-)perfect knowledge of the clearing price.
package tenant

import (
	"fmt"
	"math"

	"spotdc/internal/core"
	"spotdc/internal/trace"
	"spotdc/internal/workload"
)

// BidPolicy selects how an agent turns its demand into a bid.
type BidPolicy int

const (
	// PolicyElastic is the SpotDC piece-wise linear demand function.
	PolicyElastic BidPolicy = iota
	// PolicySimple bids exactly the needed power, all-or-nothing, at the
	// tenant's maximum price.
	PolicySimple
	// PolicyStep bids a StepBid at the tenant's maximum price for its
	// maximum useful demand.
	PolicyStep
	// PolicyFull bids the complete sampled demand curve.
	PolicyFull
	// PolicyPricePredict bids a step at just above the predicted clearing
	// price for the maximum useful demand.
	PolicyPricePredict
)

// String implements fmt.Stringer.
func (p BidPolicy) String() string {
	switch p {
	case PolicyElastic:
		return "elastic"
	case PolicySimple:
		return "simple"
	case PolicyStep:
		return "step"
	case PolicyFull:
		return "full"
	case PolicyPricePredict:
		return "price-predict"
	default:
		return fmt.Sprintf("BidPolicy(%d)", int(p))
	}
}

// MarketHint carries optional operator-side information available to
// strategic bidders (Fig. 16 assumes sprinting tenants know the price).
type MarketHint struct {
	// PredictedPrice is the anticipated clearing price in $/kW·h.
	PredictedPrice float64
	// HavePrediction reports whether PredictedPrice is meaningful.
	HavePrediction bool
}

// SlotResult reports what happened to one agent during one slot.
type SlotResult struct {
	// Participated reports whether the agent bid this slot.
	Participated bool
	// PowerWatts is the agent's actual total draw across its racks.
	PowerWatts float64
	// SpotGrantWatts is the total spot capacity granted.
	SpotGrantWatts float64
	// SpotUsedWatts is how much of the grant was actually drawn.
	SpotUsedWatts float64
	// LatencyMS is the tail latency (sprinting agents; 0 otherwise).
	LatencyMS float64
	// SLOViolated reports a missed latency SLO this slot.
	SLOViolated bool
	// ThroughputUnits is the processing rate in units/s (opportunistic
	// agents; 0 otherwise).
	ThroughputUnits float64
	// PerfScore is the normalizable performance figure: 1000/latency for
	// sprinting agents (inverse latency), throughput for opportunistic
	// ones. Zero when idle.
	PerfScore float64
	// PerfCostRate is the Section IV-C monetary performance cost in $/h
	// (sprinting) or negative value produced (opportunistic agents report
	// -value so lower is better for both).
	PerfCostRate float64
	// PowerByRack breaks PowerWatts down per rack for the operator's
	// rack-level monitoring.
	PowerByRack map[int]float64
}

// Agent is a tenant participating in the spot market. Implementations are
// deterministic: the same slot always produces the same bids and results.
//
// Concurrency and ownership: one agent is never called from two goroutines
// at once, but distinct agents may run concurrently (the experiment fan-out
// runs several scenarios at once), so implementations must not share mutable
// state across agents. The slices and maps returned by PlanBids and Execute
// may be backed by agent-owned scratch buffers: they are valid only until
// the agent's next PlanBids/Execute call, and callers that retain them must
// copy (the simulator and the protocol client both consume them within the
// slot).
type Agent interface {
	// Name identifies the tenant (Table I aliases: S-1, O-4, ...).
	Name() string
	// Class reports sprinting or opportunistic behaviour.
	Class() workload.Class
	// Racks lists the rack indices the agent owns.
	Racks() []int
	// ReservedWatts is the guaranteed capacity of one of the agent's racks.
	ReservedWatts(rack int) float64
	// PlanBids returns the agent's bids for the given slot, or nil when it
	// does not participate.
	PlanBids(slot int, hint MarketHint) []core.Bid
	// MaxPerfRequests exposes the agent's true gain curves for the MaxPerf
	// baseline; empty when the agent would not participate.
	MaxPerfRequests(slot int) []core.MaxPerfRequest
	// Execute simulates the slot given the granted spot watts per rack and
	// returns the realized metrics. A nil map means no grants.
	Execute(slot int, grants map[int]float64) SlotResult
}

// OptimalDemand computes the tenant's true demand at a price: the spot
// capacity d in [0, maxWatts] maximizing net benefit gain(d) − price·d/1000
// ($/h terms), evaluated on a grid of the given step (Fig. 4(a)'s "optimal
// spot capacity demand"). For concave gain the result is the usual
// marginal-gain ≥ marginal-cost point.
func OptimalDemand(gain func(float64) float64, price, maxWatts, stepWatts float64) float64 {
	if maxWatts <= 0 {
		return 0
	}
	if stepWatts <= 0 {
		stepWatts = 1
	}
	bestD, bestNet := 0.0, 0.0
	for d := 0.0; d <= maxWatts+stepWatts/2; d += stepWatts {
		dd := math.Min(d, maxWatts)
		net := gain(dd) - price*dd/1000
		if net > bestNet+1e-12 {
			bestD, bestNet = dd, net
		}
	}
	return bestD
}

// DemandCurve is a tenant's true rack-level demand for spot capacity as a
// function of price — the "Reference" curve of Fig. 3(a). It must be
// non-increasing and return 0 above the tenant's maximum acceptable price.
type DemandCurve func(price float64) float64

// buildBid approximates a true demand curve with the wire demand function
// dictated by the policy. qMin and qMax delimit the tenant's price range.
func buildBid(policy BidPolicy, curve DemandCurve, qMin, qMax float64, hint MarketHint) (core.DemandFunc, error) {
	dMax := curve(qMin)
	dMin := curve(qMax)
	if dMin > dMax {
		dMin = dMax
	}
	if dMax <= 0 {
		return nil, nil
	}
	switch policy {
	case PolicySimple:
		// The paper's simple strategy: bid the needed power (the demand the
		// tenant insists on even at its maximum price), all-or-nothing.
		if dMin <= 0 {
			return nil, nil
		}
		return core.LinearBid{DMax: dMin, DMin: dMin, QMin: qMax, QMax: qMax}, nil
	case PolicyStep:
		// The paper's StepBid-1 (Fig. 3(b)): bid the single point
		// (Dmax, qmin) of the true demand curve — the tenant requests its
		// full useful demand at the only price at which it truly wants all
		// of it. All the elasticity between qmin and qmax is lost, which is
		// exactly the deficiency Fig. 14 quantifies.
		return core.StepBid{D: dMax, QMax: qMin}, nil
	case PolicyFull:
		const samples = 16
		pts := make([]core.PricePoint, 0, samples)
		prev := math.Inf(1)
		for i := 0; i < samples; i++ {
			q := qMin + (qMax-qMin)*float64(i)/float64(samples-1)
			d := curve(q)
			if d > prev { // enforce monotonicity against model noise
				d = prev
			}
			prev = d
			pts = append(pts, core.PricePoint{Price: q, Demand: d})
		}
		return core.NewFullBid(pts)
	case PolicyPricePredict:
		if hint.HavePrediction && hint.PredictedPrice <= qMax {
			// With perfect knowledge of the clearing price the tenant stops
			// shading: it bids its full useful demand at exactly the
			// anticipated price, collecting dMax at the price that clears
			// anyway (Fig. 16). Bidding even slightly above the prediction
			// would let the operator ratchet the price up by that margin on
			// every slot; at exactly the prediction the fixed point is
			// stationary (the fig16 experiment iterates it).
			target := hint.PredictedPrice
			if target > qMax {
				target = qMax
			}
			return core.StepBid{D: dMax, QMax: target}, nil
		}
		// No usable prediction: fall back to the elastic default.
		lb := core.LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}
		if err := lb.Validate(); err != nil {
			return nil, err
		}
		return lb, nil
	default: // PolicyElastic
		lb := core.LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}
		if err := lb.Validate(); err != nil {
			return nil, err
		}
		return lb, nil
	}
}

// Sprint is a sprinting agent: one rack running a latency-sensitive
// workload driven by a request-rate trace. It bids whenever its reserved
// capacity cannot hold the SLO for the slot's anticipated load.
type Sprint struct {
	// TenantName is the Table I alias (S-1, S-2, S-3).
	TenantName string
	// RackIndex is the agent's rack in the market's constraint arrays.
	RackIndex int
	// Model is the workload's power-performance model.
	Model workload.LatencyModel
	// Cost is the Section IV-C monetization.
	Cost workload.SprintCost
	// Reserved is the guaranteed capacity in watts.
	Reserved float64
	// Headroom is the rack's spot headroom P_r^R in watts.
	Headroom float64
	// Load is the request-rate trace (req/s per slot).
	Load *trace.Power
	// QMin and QMax are the bidding price range in $/kW·h. Sprinting
	// tenants bid the highest prices (QMax several times the amortized
	// guaranteed rate).
	QMin, QMax float64
	// Policy selects the bidding strategy (default PolicyElastic).
	Policy BidPolicy

	// rackBuf backs SlotResult.PowerByRack and bidBuf the PlanBids return
	// slice (see the Agent ownership contract): per-slot calls reuse them
	// instead of allocating.
	rackBuf map[int]float64
	bidBuf  [1]core.Bid
}

var _ Agent = (*Sprint)(nil)

// Name implements Agent.
func (s *Sprint) Name() string { return s.TenantName }

// Class implements Agent.
func (s *Sprint) Class() workload.Class { return workload.Sprinting }

// Racks implements Agent.
func (s *Sprint) Racks() []int { return []int{s.RackIndex} }

// ReservedWatts implements Agent.
func (s *Sprint) ReservedWatts(rack int) float64 {
	if rack == s.RackIndex {
		return s.Reserved
	}
	return 0
}

// load returns the anticipated request rate for a slot.
func (s *Sprint) load(slot int) float64 { return s.Load.At(slot) }

// needsSpot reports whether the reservation misses the SLO at the slot's
// load, and the maximum watts the tenant could usefully absorb.
func (s *Sprint) needsSpot(slot int) (need bool, maxUseful float64) {
	load := s.load(slot)
	if load <= 0 {
		return false, 0
	}
	needW, _ := s.Model.PowerForLatency(load, s.Cost.SLOms)
	if needW <= s.Reserved {
		return false, 0
	}
	maxUseful = math.Min(s.Headroom, s.Model.PeakWatts-s.Reserved)
	if maxUseful <= 0 {
		return false, 0
	}
	return true, maxUseful
}

// GainFor returns the slot's performance-gain curve in $/h.
func (s *Sprint) GainFor(slot int) func(float64) float64 {
	return workload.SprintGainCurve(s.Model, s.Cost, s.load(slot), s.Reserved)
}

// comfortFrac places the sprinting tenant's low-price latency target
// between the SLO and the intrinsic base latency.
const comfortFrac = 0.6

// TrueDemand returns the slot's reference demand curve (Fig. 3(a)): at the
// tenant's maximum price it still insists on the watts that exactly
// restore the SLO; at its minimum price it wants enough to reach a
// comfortable latency well below the SLO; in between, the target
// interpolates linearly.
func (s *Sprint) TrueDemand(slot int) DemandCurve {
	load := s.load(slot)
	_, maxUseful := s.needsSpot(slot)
	needW, ok := s.Model.PowerForLatency(load, s.Cost.SLOms)
	needSpot := math.Min(math.Max(0, needW-s.Reserved), maxUseful)
	if !ok {
		// Even peak power misses the SLO: the tenant wants everything it
		// can use at any acceptable price.
		needSpot = maxUseful
	}
	comfortMS := s.Cost.SLOms - comfortFrac*(s.Cost.SLOms-s.Model.BaseMS)
	comfortW, _ := s.Model.PowerForLatency(load, comfortMS)
	comfortSpot := math.Min(math.Max(needSpot, comfortW-s.Reserved), maxUseful)
	return func(q float64) float64 {
		switch {
		case q > s.QMax:
			return 0
		case q <= s.QMin:
			return comfortSpot
		case s.QMax == s.QMin:
			return comfortSpot
		default:
			frac := (q - s.QMin) / (s.QMax - s.QMin)
			return comfortSpot + frac*(needSpot-comfortSpot)
		}
	}
}

// PlanBids implements Agent. The returned slice is agent-owned scratch,
// valid until the next PlanBids call.
func (s *Sprint) PlanBids(slot int, hint MarketHint) []core.Bid {
	need, _ := s.needsSpot(slot)
	if !need {
		return nil
	}
	fn, err := buildBid(s.Policy, s.TrueDemand(slot), s.QMin, s.QMax, hint)
	if err != nil || fn == nil {
		return nil
	}
	s.bidBuf[0] = core.Bid{Rack: s.RackIndex, Tenant: s.TenantName, Fn: fn}
	return s.bidBuf[:]
}

// byRack reuses the agent-owned single-entry PowerByRack map.
func (s *Sprint) byRack(w float64) map[int]float64 {
	if s.rackBuf == nil {
		s.rackBuf = make(map[int]float64, 1)
	}
	s.rackBuf[s.RackIndex] = w
	return s.rackBuf
}

// MaxPerfRequests implements Agent.
func (s *Sprint) MaxPerfRequests(slot int) []core.MaxPerfRequest {
	need, maxUseful := s.needsSpot(slot)
	if !need {
		return nil
	}
	return []core.MaxPerfRequest{{Rack: s.RackIndex, MaxWatts: maxUseful, Gain: s.GainFor(slot)}}
}

// Execute implements Agent.
func (s *Sprint) Execute(slot int, grants map[int]float64) SlotResult {
	load := s.load(slot)
	grant := grants[s.RackIndex]
	budget := s.Reserved + grant
	// The tenant only draws what improves its latency, up to the model's
	// peak draw.
	draw := math.Min(budget, s.Model.PeakWatts)
	if load <= 0 {
		idle := math.Min(s.Model.IdleWatts, budget)
		return SlotResult{
			Participated:   grant > 0,
			PowerWatts:     idle,
			SpotGrantWatts: grant,
			LatencyMS:      s.Model.BaseMS,
			PerfScore:      0,
			PowerByRack:    s.byRack(idle),
		}
	}
	lat := s.Model.LatencyMS(load, draw)
	used := math.Max(0, draw-s.Reserved)
	return SlotResult{
		Participated:   grant > 0,
		PowerWatts:     draw,
		SpotGrantWatts: grant,
		SpotUsedWatts:  math.Min(used, grant),
		LatencyMS:      lat,
		SLOViolated:    lat > s.Cost.SLOms,
		PerfScore:      1000 / lat,
		PerfCostRate:   s.Cost.RatePerHour(lat, load),
		PowerByRack:    s.byRack(draw),
	}
}

// Opp is an opportunistic agent: one rack running a delay-tolerant batch
// workload driven by a backlog trace. It bids for speed-up whenever backlog
// is pending, never above its maximum price (the amortized guaranteed
// rate).
type Opp struct {
	// TenantName is the Table I alias (O-1 … O-5).
	TenantName string
	// RackIndex is the agent's rack.
	RackIndex int
	// Model is the workload's power-performance model.
	Model workload.ThroughputModel
	// Cost values processed work.
	Cost workload.OppCost
	// Reserved is the guaranteed capacity in watts, sized for the minimum
	// processing rate.
	Reserved float64
	// Headroom is the rack's spot headroom P_r^R.
	Headroom float64
	// Backlog is the pending-work trace; zero means no spot demand.
	Backlog *trace.Power
	// QMin and QMax are the bidding price range in $/kW·h; QMax should not
	// exceed the amortized guaranteed-capacity rate (≈0.2).
	QMin, QMax float64
	// Policy selects the bidding strategy.
	Policy BidPolicy

	// rackBuf and bidBuf are the agent-owned scratch behind the Agent
	// ownership contract (reused across per-slot calls).
	rackBuf map[int]float64
	bidBuf  [1]core.Bid
}

var _ Agent = (*Opp)(nil)

// Name implements Agent.
func (o *Opp) Name() string { return o.TenantName }

// Class implements Agent.
func (o *Opp) Class() workload.Class { return workload.Opportunistic }

// Racks implements Agent.
func (o *Opp) Racks() []int { return []int{o.RackIndex} }

// ReservedWatts implements Agent.
func (o *Opp) ReservedWatts(rack int) float64 {
	if rack == o.RackIndex {
		return o.Reserved
	}
	return 0
}

func (o *Opp) active(slot int) bool { return o.Backlog.At(slot) > 0 }

func (o *Opp) maxUseful() float64 {
	return math.Max(0, math.Min(o.Headroom, o.Model.PeakWatts-o.Reserved))
}

// GainFor returns the slot's performance-gain curve in $/h.
func (o *Opp) GainFor(slot int) func(float64) float64 {
	return workload.OppGainCurve(o.Model, o.Cost, o.Reserved)
}

// trickleFrac is the fraction of the maximum useful spot capacity an
// opportunistic tenant still wants at its maximum acceptable price.
const trickleFrac = 0.1

// oppCurveShape bends the opportunistic demand curve (<1 = concave:
// demand holds up at moderate prices and drops near qMax). The curvature
// is what a complete demand curve (FullBid) captures and the two-segment
// LinearBid only approximates from below — the Fig. 14 gap.
const oppCurveShape = 0.6

// TrueDemand returns the slot's reference demand curve: batch tenants take
// everything useful when spot is cheap and taper to a trickle at the
// amortized guaranteed rate, above which spot capacity never makes sense
// for them.
func (o *Opp) TrueDemand(slot int) DemandCurve {
	maxUseful := o.maxUseful()
	return func(q float64) float64 {
		switch {
		case q > o.QMax:
			return 0
		case q <= o.QMin:
			return maxUseful
		case o.QMax == o.QMin:
			return maxUseful
		default:
			frac := (q - o.QMin) / (o.QMax - o.QMin)
			keep := math.Pow(1-frac, oppCurveShape)
			return maxUseful * (trickleFrac + (1-trickleFrac)*keep)
		}
	}
}

// PlanBids implements Agent. The returned slice is agent-owned scratch,
// valid until the next PlanBids call.
func (o *Opp) PlanBids(slot int, hint MarketHint) []core.Bid {
	if !o.active(slot) || o.maxUseful() <= 0 {
		return nil
	}
	fn, err := buildBid(o.Policy, o.TrueDemand(slot), o.QMin, o.QMax, hint)
	if err != nil || fn == nil {
		return nil
	}
	o.bidBuf[0] = core.Bid{Rack: o.RackIndex, Tenant: o.TenantName, Fn: fn}
	return o.bidBuf[:]
}

// byRack reuses the agent-owned single-entry PowerByRack map.
func (o *Opp) byRack(w float64) map[int]float64 {
	if o.rackBuf == nil {
		o.rackBuf = make(map[int]float64, 1)
	}
	o.rackBuf[o.RackIndex] = w
	return o.rackBuf
}

// MaxPerfRequests implements Agent.
func (o *Opp) MaxPerfRequests(slot int) []core.MaxPerfRequest {
	if !o.active(slot) || o.maxUseful() <= 0 {
		return nil
	}
	return []core.MaxPerfRequest{{Rack: o.RackIndex, MaxWatts: o.maxUseful(), Gain: o.GainFor(slot)}}
}

// Execute implements Agent.
func (o *Opp) Execute(slot int, grants map[int]float64) SlotResult {
	grant := grants[o.RackIndex]
	if !o.active(slot) {
		idle := math.Min(o.Model.IdleWatts, o.Reserved)
		return SlotResult{
			PowerWatts:     idle,
			SpotGrantWatts: grant,
			PowerByRack:    o.byRack(idle),
		}
	}
	budget := o.Reserved + grant
	draw := math.Min(budget, o.Model.PeakWatts)
	tp := o.Model.Throughput(draw)
	used := math.Max(0, draw-o.Reserved)
	return SlotResult{
		Participated:    grant > 0,
		PowerWatts:      draw,
		SpotGrantWatts:  grant,
		SpotUsedWatts:   math.Min(used, grant),
		ThroughputUnits: tp,
		PerfScore:       tp,
		PerfCostRate:    -o.Cost.RatePerHour(tp),
		PowerByRack:     o.byRack(draw),
	}
}
