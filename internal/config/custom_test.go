package config

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"spotdc/internal/sim"
)

// validCustom builds a small two-PDU custom data center.
func validCustom() *Custom {
	return &Custom{
		Name:        "edge-site",
		Slots:       200,
		SlotSeconds: 120,
		Seed:        11,
		UPSCapacity: 700,
		PDUs: []CustomPDU{
			{ID: "P1", Capacity: 360},
			{ID: "P2", Capacity: 375},
		},
		Racks: []CustomRack{
			{ID: "r1", Tenant: "fe", PDU: 0, Guaranteed: 145, Headroom: 60},
			{ID: "r2", Tenant: "batch", PDU: 1, Guaranteed: 125, Headroom: 60},
		},
		Tenants: []CustomTenant{
			{Name: "fe", Class: "sprinting", Rack: "r1", Workload: "search",
				QMin: 0.18, QMax: 0.45,
				Load: &CustomArrivals{BaseRate: 40, PeakRate: 68, BurstFraction: 0.3, BurstFactor: 1.15}},
			{Name: "batch", Class: "opportunistic", Rack: "r2", Workload: "wordcount",
				QMin: 0.02, QMax: 0.16,
				Backlog: &CustomBacklog{ActiveFraction: 0.4}},
		},
		Others: []CustomOther{
			{PDU: 0, Leased: 150},
			{PDU: 1, Leased: 180},
		},
	}
}

func TestCustomValidate(t *testing.T) {
	if err := validCustom().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func(*Custom)
	}{
		{"zero slots", func(c *Custom) { c.Slots = 0 }},
		{"zero ups", func(c *Custom) { c.UPSCapacity = 0 }},
		{"no pdus", func(c *Custom) { c.PDUs = nil }},
		{"no racks", func(c *Custom) { c.Racks = nil }},
		{"no tenants", func(c *Custom) { c.Tenants = nil }},
		{"rack bad pdu", func(c *Custom) { c.Racks[0].PDU = 9 }},
		{"tenant no name", func(c *Custom) { c.Tenants[0].Name = "" }},
		{"tenant bad rack", func(c *Custom) { c.Tenants[0].Rack = "rX" }},
		{"tenant bad prices", func(c *Custom) { c.Tenants[0].QMin = 0.5 }},
		{"tenant bad class", func(c *Custom) { c.Tenants[0].Class = "mystery" }},
		{"sprint bad workload", func(c *Custom) { c.Tenants[0].Workload = "wordcount" }},
		{"sprint no load", func(c *Custom) { c.Tenants[0].Load = nil }},
		{"sprint peak<base", func(c *Custom) { c.Tenants[0].Load.PeakRate = 1 }},
		{"opp bad workload", func(c *Custom) { c.Tenants[1].Workload = "web" }},
		{"opp no backlog", func(c *Custom) { c.Tenants[1].Backlog = nil }},
		{"opp bad fraction", func(c *Custom) { c.Tenants[1].Backlog.ActiveFraction = 2 }},
		{"other bad pdu", func(c *Custom) { c.Others[0].PDU = 5 }},
		{"other zero lease", func(c *Custom) { c.Others[0].Leased = 0 }},
	}
	for _, tc := range cases {
		c := validCustom()
		tc.mod(c)
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", tc.name, err)
		}
	}
}

func TestCustomBuildAndRun(t *testing.T) {
	sc, err := validCustom().Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "edge-site" || len(sc.Agents) != 2 || len(sc.Topo.PDUs) != 2 {
		t.Fatalf("scenario: %s agents=%d pdus=%d", sc.Name, len(sc.Agents), len(sc.Topo.PDUs))
	}
	if sc.OtherLeasedWatts != 330 {
		t.Errorf("other leased = %v", sc.OtherLeasedWatts)
	}
	res, err := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpotRevenue <= 0 {
		t.Error("custom site sold nothing over 200 busy slots")
	}
	fe := res.Tenants["fe"]
	if fe == nil || fe.Reserved != 145 {
		t.Errorf("fe stats: %+v", fe)
	}
}

func TestCustomDefaults(t *testing.T) {
	c := validCustom()
	c.SlotSeconds = 0
	c.PriceStep = 0
	c.Name = ""
	sc, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.SlotSeconds != 120 || sc.Name != "custom" {
		t.Errorf("defaults: slot=%d name=%s", sc.SlotSeconds, sc.Name)
	}
}

func TestCustomNoOthersZeroTrace(t *testing.T) {
	c := validCustom()
	c.Others = nil
	sc, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	for m, tr := range sc.OtherLoad {
		if tr.Len() != c.Slots {
			t.Errorf("pdu %d trace len = %d", m, tr.Len())
		}
		if tr.At(0) != 0 {
			t.Errorf("pdu %d trace not zero", m)
		}
	}
	if sc.OtherLeasedWatts != 0 {
		t.Errorf("leased = %v", sc.OtherLeasedWatts)
	}
}

func TestCustomThroughScenarioConfig(t *testing.T) {
	wrapper := &Scenario{Kind: "custom", Mode: "spotdc", Custom: validCustom(), BidLossProb: 0.1, FaultSeed: 2}
	if err := wrapper.Validate(); err != nil {
		t.Fatal(err)
	}
	sc, err := wrapper.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.BidLossProb != 0.1 {
		t.Error("fault injection not propagated")
	}
	if wrapper.OtherLeasedWatts() != 330 {
		t.Errorf("leased = %v", wrapper.OtherLeasedWatts())
	}
	// Missing custom block.
	if err := (&Scenario{Kind: "custom"}).Validate(); !errors.Is(err, ErrConfig) {
		t.Error("missing custom block accepted")
	}
}

func TestCustomJSONRoundTrip(t *testing.T) {
	wrapper := &Scenario{Kind: "custom", Custom: validCustom()}
	got, err := Read(bytes.NewReader(encode(t, wrapper)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Custom == nil || got.Custom.Name != "edge-site" || len(got.Custom.Tenants) != 2 {
		t.Errorf("round trip: %+v", got.Custom)
	}
	if got.Custom.Tenants[0].Load == nil || got.Custom.Tenants[0].Load.PeakRate != 68 {
		t.Errorf("load lost: %+v", got.Custom.Tenants[0])
	}
	// Unknown fields inside the custom block also fail loudly.
	if _, err := Read(strings.NewReader(`{"kind":"custom","custom":{"slots":1,"ups_capacity":1,"oops":2}}`)); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown custom field accepted: %v", err)
	}
}

func TestCustomBundledTenant(t *testing.T) {
	c := validCustom()
	c.Racks = append(c.Racks,
		CustomRack{ID: "r3", Tenant: "svc", PDU: 0, Guaranteed: 110, Headroom: 50},
		CustomRack{ID: "r4", Tenant: "svc", PDU: 1, Guaranteed: 110, Headroom: 50},
	)
	c.Tenants = append(c.Tenants, CustomTenant{
		Name: "svc", Class: "bundled", Racks: []string{"r3", "r4"}, Workload: "web",
		QMin: 0.1, QMax: 0.4, SLOms: 200,
		Load: &CustomArrivals{BaseRate: 40, PeakRate: 75, BurstFraction: 0.3, BurstFactor: 1.2},
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Agents) != 3 {
		t.Fatalf("agents = %d", len(sc.Agents))
	}
	res, err := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Tenants["svc"]
	if ts == nil || ts.Reserved != 220 {
		t.Fatalf("svc stats: %+v", ts)
	}
	// Bundled validation failures.
	bad := *c
	bad.Tenants = append([]CustomTenant{}, c.Tenants...)
	bad.Tenants[2].Racks = []string{"r3"}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Error("single-rack bundle accepted")
	}
	bad.Tenants[2].Racks = []string{"r3", "nope"}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Error("unknown bundle rack accepted")
	}
	bad.Tenants[2].Racks = []string{"r3", "r4"}
	bad.Tenants[2].Load = nil
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Error("bundle without load accepted")
	}
}
