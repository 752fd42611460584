package sim

import (
	"fmt"
	"math/rand"

	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/tenant"
	"spotdc/internal/trace"
	"spotdc/internal/workload"
)

// TestbedOptions parameterizes the Table I scaled-down testbed scenario.
type TestbedOptions struct {
	// Seed drives every synthetic trace.
	Seed int64
	// Slots is the horizon (default 10 — the paper's 20-minute run).
	Slots int
	// SlotSeconds is the slot length (default 120 s).
	SlotSeconds int
	// OtherVolatility is the per-slot relative noise of the
	// non-participating tenants' power. The Fig. 10 run deliberately uses a
	// volatile synthetic trace (~0.08); long runs use the production-like
	// 0.008.
	OtherVolatility float64
	// OtherMeanFrac is the mean "Other" draw as a fraction of its 250 W
	// lease (default 0.72).
	OtherMeanFrac float64
	// SprintBurstFraction is the fraction of slots with sprinting-tenant
	// traffic bursts (default 0.15, the paper's "around 15% of the times").
	SprintBurstFraction float64
	// OppActiveFraction is the fraction of slots with opportunistic backlog
	// (default 0.30).
	OppActiveFraction float64
	// Policy selects every participating tenant's bidding policy.
	Policy tenant.BidPolicy
	// SprintPhase shifts the sprinting tenants' diurnal arrival curve in
	// radians; π starts the run at the daily traffic peak (used by the
	// short Fig. 10 demonstration window).
	SprintPhase float64
	// CapacityScale multiplies the PDU and UPS capacities, the knob the
	// paper turns to vary spot-capacity availability (Figs. 14, 15).
	// Default 1.
	CapacityScale float64
	// PriceStep is the clearing scan granularity (default 0.001 $/kW·h).
	PriceStep float64
	// UnderPrediction is the Fig. 17 conservative prediction factor.
	UnderPrediction float64
	// Hint supplies strategic bidders' market information (Fig. 16).
	Hint func(slot int) tenant.MarketHint
}

func (o *TestbedOptions) setDefaults() {
	if o.Slots == 0 {
		o.Slots = 10
	}
	if o.SlotSeconds == 0 {
		o.SlotSeconds = 120
	}
	if o.OtherVolatility == 0 {
		o.OtherVolatility = 0.008
	}
	if o.OtherMeanFrac == 0 {
		o.OtherMeanFrac = 0.72
	}
	if o.SprintBurstFraction == 0 {
		o.SprintBurstFraction = 0.15
	}
	if o.OppActiveFraction == 0 {
		o.OppActiveFraction = 0.30
	}
	if o.CapacityScale == 0 {
		o.CapacityScale = 1
	}
	if o.PriceStep == 0 {
		o.PriceStep = 0.001
	}
}

// Sprinting tenants bid well above the amortized guaranteed rate
// (≈0.164 $/kW·h at $120/kW/month); opportunistic tenants never exceed it.
const (
	sprintQMin = 0.18
	sprintQMax = 0.45
	webQMin    = 0.12
	webQMax    = 0.35
	oppQMin    = 0.02
	oppQMax    = 0.18
)

// Testbed builds the paper's Table I scenario: two 715/724 W PDUs (5%
// oversubscribed) under a 1370 W UPS, four participating tenants per PDU
// plus 250 W of non-participating "Other" load each.
func Testbed(opt TestbedOptions) (Scenario, error) {
	opt.setDefaults()
	topo, err := power.NewTopology(1370*opt.CapacityScale,
		[]power.PDU{
			{ID: "PDU#1", Capacity: 715 * opt.CapacityScale},
			{ID: "PDU#2", Capacity: 724 * opt.CapacityScale},
		},
		[]power.Rack{
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
		return Scenario{}, err
	}
	agents, err := testbedAgents(topo, opt, 1.0, "")
	if err != nil {
		return Scenario{}, err
	}
	others, err := otherTraces(opt, 2, 250, 0)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:             "testbed",
		Topo:             topo,
		Agents:           agents,
		OtherLoad:        others,
		OtherLeasedWatts: 500,
		Slots:            opt.Slots,
		SlotSeconds:      opt.SlotSeconds,
		MarketOptions:    core.Options{PriceStep: opt.PriceStep, Ration: true},
		Pricing:          operator.DefaultPricing(),
		Predict:          power.PredictOptions{UnderPredictionFactor: opt.UnderPrediction},
		BreakerTolerance: 0.05,
		Hint:             opt.Hint,
	}, nil
}

// testbedAgents builds the eight Table I participating tenants. scale
// jitters model magnitudes and suffix disambiguates rack IDs and names
// across scaled replicas.
func testbedAgents(topo *power.Topology, opt TestbedOptions, scale float64, suffix string) ([]tenant.Agent, error) {
	rackIdx := func(id string) (int, error) {
		i, ok := topo.RackByID(id + suffix)
		if !ok {
			return 0, fmt.Errorf("sim: rack %q missing from topology", id+suffix)
		}
		return i, nil
	}
	seedBase := opt.Seed*1000 + int64(len(suffix))
	mkSprintLoad := func(seed int64, base, peak float64) (*trace.Power, error) {
		return trace.GenerateArrivals(trace.ArrivalConfig{
			Name: "load", Seed: seed, Slots: opt.Slots, SlotSeconds: opt.SlotSeconds,
			BaseRate: base * scale, PeakRate: peak * scale,
			// Bursts push the load modestly past what the reservation
			// sustains: the paper notes Search-1 would need only ~10% more
			// guaranteed capacity to ride them out (Section V-B1).
			BurstFraction: opt.SprintBurstFraction, BurstFactor: 1.15,
			PhaseOffset: opt.SprintPhase,
		})
	}
	mkBacklog := func(seed int64) (*trace.Power, error) {
		return trace.GenerateBacklog(trace.BacklogConfig{
			Name: "backlog", Seed: seed, Slots: opt.Slots, SlotSeconds: opt.SlotSeconds,
			ActiveFraction: opt.OppActiveFraction, MeanUnits: 10,
		})
	}

	scaleLatency := func(m workload.LatencyModel) workload.LatencyModel {
		m.MaxRate *= scale
		return m
	}
	scaleThroughput := func(m workload.ThroughputModel) workload.ThroughputModel {
		m.MaxUnits *= scale
		return m
	}

	var agents []tenant.Agent
	// Sprinting tenants: loads sized so the diurnal peak sits at the edge
	// of what the reservation sustains at the 100 ms SLO, and 1.5× bursts
	// push past it (Search at 145 W sustains ≈72 req/s at SLO; Web at
	// 115 W ≈49 req/s).
	type sprintSpec struct {
		alias, rack string
		model       workload.LatencyModel
		cost        workload.SprintCost
		reserved    float64
		base, peak  float64
		qMin, qMax  float64
	}
	sprints := []sprintSpec{
		{"Search-1", "S-1", scaleLatency(workload.SearchModel()), workload.DefaultSprintCost(), 145, 40, 68, sprintQMin, sprintQMax},
		{"Web", "S-2", scaleLatency(workload.WebModel()), workload.WebSprintCost(), 115, 28, 46, webQMin, webQMax},
		{"Search-2", "S-3", scaleLatency(workload.SearchModel()), workload.DefaultSprintCost(), 145, 42, 70, sprintQMin, sprintQMax},
	}
	for i, s := range sprints {
		rack, err := rackIdx(s.rack)
		if err != nil {
			return nil, err
		}
		load, err := mkSprintLoad(seedBase+int64(i)+1, s.base, s.peak)
		if err != nil {
			return nil, err
		}
		agents = append(agents, &tenant.Sprint{
			TenantName: s.alias + suffix,
			RackIndex:  rack,
			Model:      s.model,
			Cost:       s.cost,
			Reserved:   s.reserved,
			Headroom:   topo.Racks[rack].SpotHeadroom,
			Load:       load,
			QMin:       s.qMin,
			QMax:       s.qMax,
			Policy:     opt.Policy,
		})
	}
	type oppSpec struct {
		alias, rack string
		model       workload.ThroughputModel
		reserved    float64
	}
	opps := []oppSpec{
		{"Count-1", "O-1", scaleThroughput(workload.WordCountModel()), 125},
		{"Graph-1", "O-2", scaleThroughput(workload.GraphModel()), 115},
		{"Count-2", "O-3", scaleThroughput(workload.WordCountModel()), 125},
		{"Sort", "O-4", scaleThroughput(workload.TeraSortModel()), 125},
		{"Graph-2", "O-5", scaleThroughput(workload.GraphModel()), 115},
	}
	for i, o := range opps {
		rack, err := rackIdx(o.rack)
		if err != nil {
			return nil, err
		}
		backlog, err := mkBacklog(seedBase + int64(i) + 100)
		if err != nil {
			return nil, err
		}
		agents = append(agents, &tenant.Opp{
			TenantName: o.alias + suffix,
			RackIndex:  rack,
			Model:      o.model,
			Cost:       workload.DefaultOppCost(),
			Reserved:   o.reserved,
			Headroom:   topo.Racks[rack].SpotHeadroom,
			Backlog:    backlog,
			QMin:       oppQMin,
			QMax:       oppQMax,
			Policy:     opt.Policy,
		})
	}
	return agents, nil
}

func otherTraces(opt TestbedOptions, pdus int, leasedPerPDU float64, seedOffset int64) ([]*trace.Power, error) {
	out := make([]*trace.Power, pdus)
	for m := 0; m < pdus; m++ {
		tr, err := trace.GeneratePower(trace.PowerConfig{
			Name: fmt.Sprintf("other-pdu%d", m), Seed: opt.Seed + seedOffset + int64(m)*7 + 11,
			Slots: opt.Slots, SlotSeconds: opt.SlotSeconds,
			MeanWatts:  leasedPerPDU * opt.OtherMeanFrac,
			MinWatts:   leasedPerPDU * 0.35,
			MaxWatts:   leasedPerPDU,
			Volatility: opt.OtherVolatility,
		})
		if err != nil {
			return nil, err
		}
		out[m] = tr
	}
	return out, nil
}

// ScaledOptions parameterizes the Fig. 18 / Fig. 7(b) large-scale
// scenario.
type ScaledOptions struct {
	// Testbed carries the shared knobs.
	Testbed TestbedOptions
	// Tenants is the number of participating tenants; the composition of
	// Table I (8 participating tenants per 2-PDU cluster) is replicated and
	// the spare tenants of the last replica are dropped.
	Tenants int
	// JitterFrac randomly scales each replica's workloads and cost models
	// up/down by up to this fraction (paper: 20%).
	JitterFrac float64
}

// Scaled builds a large data center by replicating the Table I cluster.
// Every replica gets its own pair of PDUs; the UPS is sized to keep the 5%
// oversubscription of the testbed.
func Scaled(opt ScaledOptions) (Scenario, error) {
	opt.Testbed.setDefaults()
	if opt.Tenants <= 0 {
		return Scenario{}, fmt.Errorf("sim: Tenants %d must be positive", opt.Tenants)
	}
	if opt.JitterFrac < 0 || opt.JitterFrac >= 1 {
		return Scenario{}, fmt.Errorf("sim: JitterFrac %v outside [0,1)", opt.JitterFrac)
	}
	replicas := (opt.Tenants + 7) / 8
	rng := rand.New(rand.NewSource(opt.Testbed.Seed + 17))

	var pdus []power.PDU
	var racks []power.Rack
	rackSpecs := []struct {
		id, tenant string
		pdu        int
		guaranteed float64
		headroom   float64
	}{
		{"S-1", "Search-1", 0, 145, 60},
		{"S-2", "Web", 0, 115, 50},
		{"O-1", "Count-1", 0, 125, 60},
		{"O-2", "Graph-1", 0, 115, 50},
		{"S-3", "Search-2", 1, 145, 60},
		{"O-3", "Count-2", 1, 125, 60},
		{"O-4", "Sort", 1, 125, 60},
		{"O-5", "Graph-2", 1, 115, 50},
	}
	scales := make([]float64, replicas)
	for rep := 0; rep < replicas; rep++ {
		scale := 1.0
		if opt.JitterFrac > 0 {
			scale = 1 + (rng.Float64()*2-1)*opt.JitterFrac
		}
		scales[rep] = scale
		suffix := fmt.Sprintf("/%d", rep)
		base := len(pdus)
		cs := opt.Testbed.CapacityScale * scale
		pdus = append(pdus,
			power.PDU{ID: fmt.Sprintf("PDU#1%s", suffix), Capacity: 715 * cs},
			power.PDU{ID: fmt.Sprintf("PDU#2%s", suffix), Capacity: 724 * cs},
		)
		for _, rs := range rackSpecs {
			racks = append(racks, power.Rack{
				ID:           rs.id + suffix,
				Tenant:       rs.tenant + suffix,
				PDU:          base + rs.pdu,
				Guaranteed:   rs.guaranteed * scale,
				SpotHeadroom: rs.headroom * scale,
			})
		}
	}
	upsCapacity := 0.0
	for _, p := range pdus {
		upsCapacity += p.Capacity
	}
	upsCapacity /= 1.05
	topo, err := power.NewTopology(upsCapacity, pdus, racks)
	if err != nil {
		return Scenario{}, err
	}

	var agents []tenant.Agent
	var others []*trace.Power
	kept := 0
	for rep := 0; rep < replicas; rep++ {
		suffix := fmt.Sprintf("/%d", rep)
		repOpt := opt.Testbed
		repOpt.Seed += int64(rep) * 31
		repAgents, err := testbedAgents(topo, repOpt, scales[rep], suffix)
		if err != nil {
			return Scenario{}, err
		}
		// The last replica's spare tenants are dropped; their racks remain
		// in the topology as static leases at their reference power.
		for _, a := range repAgents {
			if kept < opt.Tenants {
				agents = append(agents, a)
				kept++
			}
		}
		// Reserved capacities of replica racks are jittered; size the
		// "Other" load accordingly.
		repOthers, err := otherTraces(repOpt, 2, 250*scales[rep], int64(rep)*101)
		if err != nil {
			return Scenario{}, err
		}
		others = append(others, repOthers...)
	}

	sc := Scenario{
		Name:             fmt.Sprintf("scaled-%d", opt.Tenants),
		Topo:             topo,
		Agents:           agents,
		OtherLoad:        others,
		OtherLeasedWatts: 500 * float64(replicas),
		Slots:            opt.Testbed.Slots,
		SlotSeconds:      opt.Testbed.SlotSeconds,
		MarketOptions:    core.Options{PriceStep: opt.Testbed.PriceStep, Ration: true},
		Pricing:          operator.DefaultPricing(),
		Predict:          power.PredictOptions{UnderPredictionFactor: opt.Testbed.UnderPrediction},
		BreakerTolerance: 0.05,
		Hint:             opt.Testbed.Hint,
	}
	return sc, nil
}
