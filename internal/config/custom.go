package config

import (
	"fmt"

	"spotdc/internal/core"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/sim"
	"spotdc/internal/tenant"
	"spotdc/internal/trace"
	"spotdc/internal/workload"
)

// Custom describes a fully bespoke data center: explicit power topology,
// tenants with workload models and trace generators, and background load.
// It is the declarative counterpart of assembling a sim.Scenario in code.
type Custom struct {
	// Name labels the scenario.
	Name string `json:"name,omitempty"`
	// Slots and SlotSeconds set the horizon.
	Slots       int `json:"slots"`
	SlotSeconds int `json:"slot_seconds,omitempty"`
	// Seed is the default seed for generators that do not set their own.
	Seed int64 `json:"seed,omitempty"`
	// UPSCapacity is the shared UPS capacity in watts.
	UPSCapacity float64 `json:"ups_capacity"`
	// PDUs and Racks describe the power tree.
	PDUs  []CustomPDU  `json:"pdus"`
	Racks []CustomRack `json:"racks"`
	// Tenants lists the participating agents.
	Tenants []CustomTenant `json:"tenants"`
	// Others describes non-participating load per PDU.
	Others []CustomOther `json:"others,omitempty"`
	// PriceStep is the clearing scan granularity.
	PriceStep float64 `json:"price_step,omitempty"`
	// UnderPrediction is the conservative prediction factor.
	UnderPrediction float64 `json:"under_prediction,omitempty"`
}

// CustomPDU is one cluster PDU.
type CustomPDU struct {
	ID       string  `json:"id"`
	Capacity float64 `json:"capacity"`
}

// CustomRack is one tenant rack.
type CustomRack struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant,omitempty"`
	PDU        int     `json:"pdu"`
	Guaranteed float64 `json:"guaranteed"`
	Headroom   float64 `json:"headroom"`
}

// CustomTenant is one participating agent bound to a rack.
type CustomTenant struct {
	// Name identifies the tenant.
	Name string `json:"name"`
	// Class is "sprinting", "opportunistic" or "bundled" (a multi-rack
	// sprinting service bidding a joint demand vector, Section III-B3).
	Class string `json:"class"`
	// Rack is the rack ID the tenant bids for (sprinting/opportunistic).
	Rack string `json:"rack,omitempty"`
	// Racks lists the tier racks of a bundled tenant, front to back.
	Racks []string `json:"racks,omitempty"`
	// SLOms overrides the end-to-end latency SLO of a bundled tenant
	// (default 200 ms).
	SLOms float64 `json:"slo_ms,omitempty"`
	// Workload picks a preset model: "search", "web" (sprinting);
	// "wordcount", "terasort", "graph" (opportunistic).
	Workload string `json:"workload"`
	// QMin and QMax delimit the bidding prices in $/kW·h.
	QMin float64 `json:"qmin"`
	QMax float64 `json:"qmax"`
	// Load drives sprinting tenants (requests/s).
	Load *CustomArrivals `json:"load,omitempty"`
	// Backlog drives opportunistic tenants.
	Backlog *CustomBacklog `json:"backlog,omitempty"`
}

// CustomArrivals parameterizes a request-arrival generator.
type CustomArrivals struct {
	Seed          int64   `json:"seed,omitempty"`
	BaseRate      float64 `json:"base_rate"`
	PeakRate      float64 `json:"peak_rate"`
	BurstFraction float64 `json:"burst_fraction,omitempty"`
	BurstFactor   float64 `json:"burst_factor,omitempty"`
}

// CustomBacklog parameterizes a batch-backlog generator.
type CustomBacklog struct {
	Seed           int64   `json:"seed,omitempty"`
	ActiveFraction float64 `json:"active_fraction"`
	MeanUnits      float64 `json:"mean_units,omitempty"`
}

// CustomOther is non-participating load attached to one PDU.
type CustomOther struct {
	PDU        int     `json:"pdu"`
	Leased     float64 `json:"leased"`
	MeanFrac   float64 `json:"mean_frac,omitempty"`
	Volatility float64 `json:"volatility,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// Validate checks the custom scenario.
func (c *Custom) Validate() error {
	switch {
	case c.Slots <= 0:
		return fmt.Errorf("%w: slots %d must be positive", ErrConfig, c.Slots)
	case c.UPSCapacity <= 0:
		return fmt.Errorf("%w: ups_capacity %v must be positive", ErrConfig, c.UPSCapacity)
	case len(c.PDUs) == 0:
		return fmt.Errorf("%w: no PDUs", ErrConfig)
	case len(c.Racks) == 0:
		return fmt.Errorf("%w: no racks", ErrConfig)
	case len(c.Tenants) == 0:
		return fmt.Errorf("%w: no tenants", ErrConfig)
	}
	rackIDs := map[string]bool{}
	for _, r := range c.Racks {
		if r.PDU < 0 || r.PDU >= len(c.PDUs) {
			return fmt.Errorf("%w: rack %q references pdu %d of %d", ErrConfig, r.ID, r.PDU, len(c.PDUs))
		}
		rackIDs[r.ID] = true
	}
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("%w: tenant with empty name", ErrConfig)
		}
		if t.Class != "bundled" && !rackIDs[t.Rack] {
			return fmt.Errorf("%w: tenant %q references unknown rack %q", ErrConfig, t.Name, t.Rack)
		}
		if t.QMax < t.QMin || t.QMin < 0 {
			return fmt.Errorf("%w: tenant %q prices [%v, %v]", ErrConfig, t.Name, t.QMin, t.QMax)
		}
		switch t.Class {
		case "sprinting":
			if _, err := sprintModel(t.Workload); err != nil {
				return err
			}
			if t.Load == nil {
				return fmt.Errorf("%w: sprinting tenant %q needs a load generator", ErrConfig, t.Name)
			}
			if t.Load.PeakRate < t.Load.BaseRate {
				return fmt.Errorf("%w: tenant %q peak rate below base", ErrConfig, t.Name)
			}
		case "opportunistic":
			if _, err := oppModel(t.Workload); err != nil {
				return err
			}
			if t.Backlog == nil {
				return fmt.Errorf("%w: opportunistic tenant %q needs a backlog generator", ErrConfig, t.Name)
			}
			if t.Backlog.ActiveFraction <= 0 || t.Backlog.ActiveFraction > 1 {
				return fmt.Errorf("%w: tenant %q active_fraction %v", ErrConfig, t.Name, t.Backlog.ActiveFraction)
			}
		case "bundled":
			if _, err := sprintModel(t.Workload); err != nil {
				return err
			}
			if len(t.Racks) < 2 {
				return fmt.Errorf("%w: bundled tenant %q needs ≥2 racks", ErrConfig, t.Name)
			}
			for _, id := range t.Racks {
				if !rackIDs[id] {
					return fmt.Errorf("%w: bundled tenant %q references unknown rack %q", ErrConfig, t.Name, id)
				}
			}
			if t.Load == nil {
				return fmt.Errorf("%w: bundled tenant %q needs a load generator", ErrConfig, t.Name)
			}
			if t.Load.PeakRate < t.Load.BaseRate {
				return fmt.Errorf("%w: tenant %q peak rate below base", ErrConfig, t.Name)
			}
		default:
			return fmt.Errorf("%w: tenant %q class %q (want sprinting, opportunistic or bundled)", ErrConfig, t.Name, t.Class)
		}
	}
	for _, o := range c.Others {
		if o.PDU < 0 || o.PDU >= len(c.PDUs) {
			return fmt.Errorf("%w: other load references pdu %d of %d", ErrConfig, o.PDU, len(c.PDUs))
		}
		if o.Leased <= 0 {
			return fmt.Errorf("%w: other load on pdu %d leases %v W", ErrConfig, o.PDU, o.Leased)
		}
	}
	return nil
}

func sprintModel(name string) (workload.LatencyModel, error) {
	switch name {
	case "search":
		return workload.SearchModel(), nil
	case "web":
		return workload.WebModel(), nil
	default:
		return workload.LatencyModel{}, fmt.Errorf("%w: unknown sprinting workload %q (want search or web)", ErrConfig, name)
	}
}

func oppModel(name string) (workload.ThroughputModel, error) {
	switch name {
	case "wordcount":
		return workload.WordCountModel(), nil
	case "terasort":
		return workload.TeraSortModel(), nil
	case "graph":
		return workload.GraphModel(), nil
	default:
		return workload.ThroughputModel{}, fmt.Errorf("%w: unknown opportunistic workload %q", ErrConfig, name)
	}
}

// Build materializes the sim.Scenario.
func (c *Custom) Build() (sim.Scenario, error) {
	if err := c.Validate(); err != nil {
		return sim.Scenario{}, err
	}
	slotSec := c.SlotSeconds
	if slotSec == 0 {
		slotSec = 120
	}
	priceStep := c.PriceStep
	if priceStep == 0 {
		priceStep = 0.001
	}
	pdus := make([]power.PDU, len(c.PDUs))
	for i, p := range c.PDUs {
		pdus[i] = power.PDU{ID: p.ID, Capacity: p.Capacity}
	}
	racks := make([]power.Rack, len(c.Racks))
	for i, r := range c.Racks {
		racks[i] = power.Rack{ID: r.ID, Tenant: r.Tenant, PDU: r.PDU, Guaranteed: r.Guaranteed, SpotHeadroom: r.Headroom}
	}
	topo, err := power.NewTopology(c.UPSCapacity, pdus, racks)
	if err != nil {
		return sim.Scenario{}, err
	}

	seedOf := func(explicit int64, i int) int64 {
		if explicit != 0 {
			return explicit
		}
		return c.Seed + int64(i)*37 + 5
	}
	var agents []tenant.Agent
	for i, t := range c.Tenants {
		if t.Class == "bundled" {
			a, err := c.buildBundled(topo, t, seedOf(t.Load.Seed, i), slotSec)
			if err != nil {
				return sim.Scenario{}, err
			}
			agents = append(agents, a)
			continue
		}
		rackIdx, ok := topo.RackByID(t.Rack)
		if !ok {
			return sim.Scenario{}, fmt.Errorf("%w: rack %q missing after build", ErrConfig, t.Rack)
		}
		reserved := topo.Racks[rackIdx].Guaranteed
		headroom := topo.Racks[rackIdx].SpotHeadroom
		switch t.Class {
		case "sprinting":
			model, err := sprintModel(t.Workload)
			if err != nil {
				return sim.Scenario{}, err
			}
			cost := workload.DefaultSprintCost()
			if t.Workload == "web" {
				cost = workload.WebSprintCost()
			}
			load, err := trace.GenerateArrivals(trace.ArrivalConfig{
				Name: t.Name + "-load", Seed: seedOf(t.Load.Seed, i),
				Slots: c.Slots, SlotSeconds: slotSec,
				BaseRate: t.Load.BaseRate, PeakRate: t.Load.PeakRate,
				BurstFraction: t.Load.BurstFraction, BurstFactor: t.Load.BurstFactor,
			})
			if err != nil {
				return sim.Scenario{}, err
			}
			agents = append(agents, &tenant.Sprint{
				TenantName: t.Name, RackIndex: rackIdx, Model: model, Cost: cost,
				Reserved: reserved, Headroom: headroom, Load: load,
				QMin: t.QMin, QMax: t.QMax,
			})
		case "opportunistic":
			model, err := oppModel(t.Workload)
			if err != nil {
				return sim.Scenario{}, err
			}
			mean := t.Backlog.MeanUnits
			if mean == 0 {
				mean = 10
			}
			backlog, err := trace.GenerateBacklog(trace.BacklogConfig{
				Name: t.Name + "-backlog", Seed: seedOf(t.Backlog.Seed, i),
				Slots: c.Slots, SlotSeconds: slotSec,
				ActiveFraction: t.Backlog.ActiveFraction, MeanUnits: mean,
			})
			if err != nil {
				return sim.Scenario{}, err
			}
			agents = append(agents, &tenant.Opp{
				TenantName: t.Name, RackIndex: rackIdx, Model: model,
				Cost: workload.DefaultOppCost(), Reserved: reserved, Headroom: headroom,
				Backlog: backlog, QMin: t.QMin, QMax: t.QMax,
			})
		}
	}

	others := make([]*trace.Power, len(c.PDUs))
	otherLeased := 0.0
	for i := range others {
		others[i] = &trace.Power{Name: fmt.Sprintf("other-%d", i), SlotSeconds: slotSec}
	}
	for i, o := range c.Others {
		meanFrac := o.MeanFrac
		if meanFrac == 0 {
			meanFrac = 0.72
		}
		vol := o.Volatility
		if vol == 0 {
			vol = 0.008
		}
		tr, err := trace.GeneratePower(trace.PowerConfig{
			Name: fmt.Sprintf("other-pdu%d", o.PDU), Seed: seedOf(o.Seed, 1000+i),
			Slots: c.Slots, SlotSeconds: slotSec,
			MeanWatts: o.Leased * meanFrac, MinWatts: o.Leased * 0.3, MaxWatts: o.Leased,
			Volatility: vol,
		})
		if err != nil {
			return sim.Scenario{}, err
		}
		otherLeased += o.Leased
		// Multiple entries for the same PDU sum.
		if others[o.PDU].Watts == nil {
			others[o.PDU] = tr
		} else {
			for s := range others[o.PDU].Watts {
				others[o.PDU].Watts[s] += tr.At(s)
			}
		}
	}
	// PDUs with no configured other-load get an all-zero trace of the right
	// length.
	for i := range others {
		if others[i].Watts == nil {
			others[i].Watts = make([]float64, c.Slots)
		}
	}

	name := c.Name
	if name == "" {
		name = "custom"
	}
	return sim.Scenario{
		Name:             name,
		Topo:             topo,
		Agents:           agents,
		OtherLoad:        others,
		OtherLeasedWatts: otherLeased,
		Slots:            c.Slots,
		SlotSeconds:      slotSec,
		MarketOptions:    core.Options{PriceStep: priceStep, Ration: true},
		Pricing:          operator.DefaultPricing(),
		Predict:          power.PredictOptions{UnderPredictionFactor: c.UnderPrediction},
		BreakerTolerance: 0.05,
	}, nil
}

// buildBundled materializes a multi-rack bundled tenant.
func (c *Custom) buildBundled(topo *power.Topology, t CustomTenant, seed int64, slotSec int) (tenant.Agent, error) {
	model, err := sprintModel(t.Workload)
	if err != nil {
		return nil, err
	}
	tiers := make([]tenant.Tier, 0, len(t.Racks))
	for _, id := range t.Racks {
		idx, ok := topo.RackByID(id)
		if !ok {
			return nil, fmt.Errorf("%w: rack %q missing after build", ErrConfig, id)
		}
		tiers = append(tiers, tenant.Tier{
			Rack: idx, Model: model,
			Reserved: topo.Racks[idx].Guaranteed,
			Headroom: topo.Racks[idx].SpotHeadroom,
		})
	}
	load, err := trace.GenerateArrivals(trace.ArrivalConfig{
		Name: t.Name + "-load", Seed: seed,
		Slots: c.Slots, SlotSeconds: slotSec,
		BaseRate: t.Load.BaseRate, PeakRate: t.Load.PeakRate,
		BurstFraction: t.Load.BurstFraction, BurstFactor: t.Load.BurstFactor,
	})
	if err != nil {
		return nil, err
	}
	slo := t.SLOms
	if slo == 0 {
		slo = 200
	}
	cost := workload.DefaultSprintCost()
	cost.SLOms = slo
	return &tenant.BundledSprint{
		TenantName: t.Name,
		Tiers:      tiers,
		Cost:       cost,
		Load:       load,
		QMin:       t.QMin,
		QMax:       t.QMax,
	}, nil
}
