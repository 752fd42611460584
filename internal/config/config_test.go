package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spotdc/internal/sim"
)

func validTestbed() *Scenario {
	return &Scenario{Kind: "testbed", Mode: "spotdc", Seed: 42, Slots: 100}
}

func TestValidate(t *testing.T) {
	if err := validTestbed().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func(*Scenario)
	}{
		{"bad kind", func(c *Scenario) { c.Kind = "nope" }},
		{"bad mode", func(c *Scenario) { c.Mode = "fast" }},
		{"bad policy", func(c *Scenario) { c.Policy = "greedy" }},
		{"zero slots", func(c *Scenario) { c.Slots = 0 }},
		{"scaled without tenants", func(c *Scenario) { c.Kind = "scaled" }},
		{"bad loss prob", func(c *Scenario) { c.BidLossProb = 2 }},
	}
	for _, c := range cases {
		cfg := validTestbed()
		c.mod(cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", c.name, err)
		}
	}
}

func TestRunMode(t *testing.T) {
	for in, want := range map[string]sim.Mode{
		"":        sim.ModeSpotDC,
		"spotdc":  sim.ModeSpotDC,
		"capped":  sim.ModePowerCapped,
		"maxperf": sim.ModeMaxPerf,
	} {
		c := validTestbed()
		c.Mode = in
		got, err := c.RunMode()
		if err != nil || got != want {
			t.Errorf("RunMode(%q) = %v, %v", in, got, err)
		}
	}
}

func TestBuildTestbedRuns(t *testing.T) {
	cfg := validTestbed()
	cfg.BidLossProb = 0.1
	cfg.FaultSeed = 3
	sc, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.BidLossProb != 0.1 || sc.FaultSeed != 3 {
		t.Error("fault settings not propagated")
	}
	mode, err := cfg.RunMode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, sim.RunOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 100 {
		t.Errorf("slots = %d", res.Slots)
	}
	if cfg.OtherLeasedWatts() != 500 {
		t.Errorf("other leased = %v", cfg.OtherLeasedWatts())
	}
}

func TestBuildScaled(t *testing.T) {
	cfg := &Scenario{Kind: "scaled", Seed: 1, Slots: 10, Tenants: 16, JitterFrac: 0.2}
	sc, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Agents) != 16 {
		t.Errorf("agents = %d", len(sc.Agents))
	}
	if cfg.OtherLeasedWatts() != 1000 {
		t.Errorf("other leased = %v", cfg.OtherLeasedWatts())
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	_, err := Read(strings.NewReader(`{"kind":"testbed","slots":10,"tpyo":1}`))
	if !errors.Is(err, ErrConfig) {
		t.Errorf("unknown field accepted: %v", err)
	}
	if _, err := Read(strings.NewReader(`not json`)); !errors.Is(err, ErrConfig) {
		t.Errorf("garbage accepted: %v", err)
	}
	// The clearing engine is no longer configurable: a file still carrying
	// the retired "algorithm" key is a typo like any other.
	for _, stale := range []string{
		`{"kind":"testbed","slots":10,"algorithm":"scan"}`,
		`{"kind":"custom","custom":{"slots":1,"ups_capacity":1,"algorithm":"exact"}}`,
	} {
		if _, err := Read(strings.NewReader(stale)); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "algorithm") {
			t.Errorf("retired algorithm key: err = %v, want an ErrConfig naming it", err)
		}
	}
	if _, err := Read(strings.NewReader(`{"kind":"testbed","slots":0}`)); !errors.Is(err, ErrConfig) {
		t.Errorf("invalid values accepted: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := &Scenario{
		Kind: "scaled", Mode: "maxperf", Seed: 9, Slots: 50, SlotSeconds: 300,
		Policy: "step", CapacityScale: 1.05, Tenants: 24, JitterFrac: 0.1,
		BidLossProb: 0.05, FaultSeed: 2,
	}
	got, err := Read(bytes.NewReader(encode(t, cfg)))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cfg {
		t.Errorf("round trip: %+v != %+v", got, cfg)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	cfg := validTestbed()
	if err := os.WriteFile(path, encode(t, cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cfg {
		t.Errorf("load mismatch: %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// encode renders c as the indented JSON that Read and Load parse.
func encode(t *testing.T, c *Scenario) []byte {
	t.Helper()
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}
