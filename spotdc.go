// Package spotdc is a Go implementation of SpotDC, the spot power-capacity
// market for multi-tenant data centers from "A Spot Capacity Market to
// Increase Power Infrastructure Utilization in Multi-Tenant Data Centers"
// (HPCA 2018).
//
// A multi-tenant (colocation) data center leases guaranteed power capacity
// to tenants who run their own servers. The aggregate demand fluctuates,
// leaving unused headroom — spot capacity — at the shared PDUs and UPS.
// SpotDC sells that headroom per time slot: tenants submit a four-parameter
// piece-wise linear demand function per rack, and the operator picks the
// uniform price maximizing its revenue subject to rack, PDU and UPS
// capacity constraints.
//
// The package has one job — build a data center, attach tenants, run
// markets and simulations — and exports only what that takes:
//
//   - Topology / NewTopology (PDU, Rack, Reading) describe the
//     power-delivery tree and its per-slot power readings.
//   - LinearBid, StepBid, NewFullBid and BundleBids build demand functions
//     and Bids; Market / NewMarket clear them at a uniform price under
//     Constraints, with optional heat-density and phase-balance Extras.
//   - MaxPerf is the owner-operated baseline of Section V-B.
//   - NewOperator adds spot prediction, billing and profit accounting
//     (Algorithm 1) on top of the market.
//   - Testbed, Scaled and Run reproduce the paper's evaluation scenarios in
//     SpotDC or PowerCapped mode; RunExperiment regenerates any of the
//     paper's tables and figures.
//   - NewMarketServer and DialMarket speak the networked Fig. 5 protocol.
//
// Everything else — metrics, tracing, the journal and its auditor, the
// write-ahead log, fault injection — lives in the internal packages the
// cmd/ binaries use directly.
//
// Quick start (one market round):
//
//	topo, _ := spotdc.NewTopology(1370,
//		[]spotdc.PDU{{ID: "PDU#1", Capacity: 715}},
//		[]spotdc.Rack{{ID: "S-1", Tenant: "search", PDU: 0, Guaranteed: 145, SpotHeadroom: 60}})
//	op, _ := spotdc.NewOperator(spotdc.OperatorConfig{Topology: topo})
//	out, _ := op.RunSlot([]spotdc.Bid{{
//		Rack: 0, Tenant: "search",
//		Fn:   spotdc.LinearBid{DMax: 40, DMin: 15, QMin: 0.1, QMax: 0.4},
//	}}, reading, 2.0/60)
//	fmt.Println(out.Result.Price, out.Result.TotalWatts)
//
// See examples/ for runnable programs and DESIGN.md / EXPERIMENTS.md for
// the reproduction methodology.
package spotdc

import (
	"spotdc/internal/core"
	"spotdc/internal/experiments"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/sim"
)

// Power hierarchy (internal/power).
type (
	// Topology is the UPS → PDU → rack power-delivery tree.
	Topology = power.Topology
	// PDU is one cluster-level power distribution unit.
	PDU = power.PDU
	// Rack is one tenant rack with guaranteed capacity and spot headroom.
	Rack = power.Rack
	// Reading is a per-rack power snapshot.
	Reading = power.Reading
)

// NewTopology validates and indexes a power topology.
func NewTopology(upsCapacity float64, pdus []PDU, racks []Rack) (*Topology, error) {
	return power.NewTopology(upsCapacity, pdus, racks)
}

// Market design (internal/core — the paper's contribution).
type (
	// DemandFunc is a rack's spot-capacity demand as a function of price.
	DemandFunc = core.DemandFunc
	// LinearBid is the paper's four-parameter piece-wise linear demand
	// function (Fig. 3(a)).
	LinearBid = core.LinearBid
	// StepBid is the Amazon-style all-or-nothing demand function.
	StepBid = core.StepBid
	// PricePoint samples a full demand curve (see NewFullBid).
	PricePoint = core.PricePoint
	// Bid pairs a rack with its demand function.
	Bid = core.Bid
	// Constraints carries the Eqn. (2)–(4) capacity limits.
	Constraints = core.Constraints
	// Market clears spot capacity at a uniform revenue-maximizing price.
	Market = core.Market
	// MarketOptions tunes the clearing-price search.
	MarketOptions = core.Options
	// MaxPerfRequest exposes a rack's true gain curve to the MaxPerf
	// baseline.
	MaxPerfRequest = core.MaxPerfRequest
	// Extras carries the optional Section III-A zone and phase constraints
	// (Market.SetExtras).
	Extras = core.Extras
	// Zone is a heat-density (cooling) constraint over a set of racks.
	Zone = core.Zone
	// PhaseOf assigns racks to three-phase feeds.
	PhaseOf = core.PhaseOf
)

// NewMarket builds a clearing engine over the given constraints.
func NewMarket(cons Constraints, opts MarketOptions) (*Market, error) {
	return core.NewMarket(cons, opts)
}

// NewFullBid builds a completely sampled demand curve from its samples.
func NewFullBid(points []PricePoint) (*core.FullBid, error) {
	return core.NewFullBid(points)
}

// BundleBids builds the per-rack linear bids of a multi-rack (bundled)
// demand vector (Section III-B3).
func BundleBids(tenantName string, racks []int, dMax, dMin []float64, qMin, qMax float64) ([]Bid, error) {
	return core.Bundle(tenantName, racks, dMax, dMin, qMin, qMax)
}

// MaxPerf allocates spot capacity to maximize total performance gain — the
// owner-operated baseline of Section V-B.
func MaxPerf(cons Constraints, reqs []MaxPerfRequest, quantumWatts float64) ([]core.Allocation, error) {
	return core.MaxPerf(cons, reqs, core.MaxPerfOptions{QuantumWatts: quantumWatts})
}

// OperatorConfig assembles the per-slot SpotDC operator (internal/operator).
type OperatorConfig = operator.Config

// NewOperator builds the operator for a topology: each RunSlot predicts
// spot capacity, clears the market and bills the grants.
func NewOperator(cfg OperatorConfig) (*operator.Operator, error) { return operator.New(cfg) }

// DefaultPricing returns the paper's evaluation parameters.
func DefaultPricing() operator.Pricing { return operator.DefaultPricing() }

// Simulation (internal/sim).
type (
	// Scenario describes a simulation run.
	Scenario = sim.Scenario
	// RunOptions tunes a simulation run.
	RunOptions = sim.RunOptions
	// SimResult is a simulation outcome with per-tenant statistics.
	SimResult = sim.Result
	// TestbedOptions parameterizes the Table I scenario.
	TestbedOptions = sim.TestbedOptions
	// ScaledOptions parameterizes the large-scale scenario.
	ScaledOptions = sim.ScaledOptions
)

// Simulation modes (RunOptions.Mode).
const (
	ModeSpotDC      = sim.ModeSpotDC
	ModePowerCapped = sim.ModePowerCapped
)

// Testbed builds the paper's Table I scenario.
func Testbed(opt TestbedOptions) (Scenario, error) { return sim.Testbed(opt) }

// Scaled builds the replicated large-scale scenario (Fig. 18).
func Scaled(opt ScaledOptions) (Scenario, error) { return sim.Scaled(opt) }

// Run simulates a scenario.
func Run(sc Scenario, opts RunOptions) (*SimResult, error) { return sim.Run(sc, opts) }

// TenantCost computes a tenant's total cost over a run (subscription +
// energy + spot payments).
func TenantCost(r *SimResult, pricing operator.Pricing, name string) (float64, error) {
	return sim.TenantCost(r, pricing, name)
}

// Network protocol (internal/proto — the Fig. 5 operator↔tenant API).
type (
	// MarketServer is the operator-side protocol endpoint.
	MarketServer = proto.Server
	// MarketClient is the tenant-side protocol endpoint.
	MarketClient = proto.Client
	// RackBid is the wire form of the four-parameter demand function.
	RackBid = proto.RackBid
)

// NewMarketServer starts the operator-side protocol endpoint; resolve maps
// wire rack IDs to market rack indices.
func NewMarketServer(addr string, resolve func(id string) (int, bool)) (*MarketServer, error) {
	return proto.NewServer(addr, resolve)
}

// DialMarket connects a tenant to the operator and registers its racks.
func DialMarket(addr, tenantName string, racks []string) (*MarketClient, error) {
	return proto.Dial(addr, tenantName, racks)
}

// ErrNoPrice reports a missed price broadcast; the tenant then defaults to
// no spot capacity (Section III-C).
var ErrNoPrice = proto.ErrNoPrice

// ExperimentOptions tunes experiment horizons and scales
// (internal/experiments).
type ExperimentOptions = experiments.Options

// Experiments lists the available experiment IDs (table1, fig2b, ...).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt ExperimentOptions) (*experiments.Report, error) {
	return experiments.Run(id, opt)
}
