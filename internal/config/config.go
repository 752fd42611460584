// Package config loads and saves declarative simulation configurations as
// JSON, so operators can version scenario definitions (cmd/spotdc-sim
// -config). Only serializable knobs appear here; programmatic hooks
// (bidding hints, price feedback) remain code-level concerns.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"spotdc/internal/sim"
	"spotdc/internal/tenant"
)

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("config: invalid configuration")

// Scenario is the serializable description of one simulation run.
type Scenario struct {
	// Kind selects the scenario builder: "testbed" (Table I) or "scaled".
	Kind string `json:"kind"`
	// Mode selects the scheme: "spotdc", "capped" or "maxperf".
	Mode string `json:"mode"`
	// Seed drives all synthetic traces.
	Seed int64 `json:"seed"`
	// Slots is the horizon; SlotSeconds the slot length.
	Slots       int `json:"slots"`
	SlotSeconds int `json:"slot_seconds,omitempty"`
	// Policy is the bidding policy: "elastic" (default), "simple", "step",
	// "full".
	Policy string `json:"policy,omitempty"`
	// OtherVolatility, OtherMeanFrac, SprintBurstFraction,
	// OppActiveFraction and SprintPhase mirror sim.TestbedOptions.
	OtherVolatility     float64 `json:"other_volatility,omitempty"`
	OtherMeanFrac       float64 `json:"other_mean_frac,omitempty"`
	SprintBurstFraction float64 `json:"sprint_burst_fraction,omitempty"`
	OppActiveFraction   float64 `json:"opp_active_fraction,omitempty"`
	SprintPhase         float64 `json:"sprint_phase,omitempty"`
	// CapacityScale multiplies PDU/UPS capacities (availability knob).
	CapacityScale float64 `json:"capacity_scale,omitempty"`
	// PriceStep is the clearing scan granularity in $/kW·h.
	PriceStep float64 `json:"price_step,omitempty"`
	// UnderPrediction is the Fig. 17 conservative prediction factor.
	UnderPrediction float64 `json:"under_prediction,omitempty"`
	// Tenants and JitterFrac apply to kind "scaled".
	Tenants    int     `json:"tenants,omitempty"`
	JitterFrac float64 `json:"jitter_frac,omitempty"`
	// BidLossProb injects communication loss; FaultSeed drives it.
	BidLossProb float64 `json:"bid_loss_prob,omitempty"`
	FaultSeed   int64   `json:"fault_seed,omitempty"`
	// Custom describes a bespoke data center (kind "custom"); all
	// testbed/scaled knobs above are ignored except Mode, BidLossProb and
	// FaultSeed.
	Custom *Custom `json:"custom,omitempty"`
}

// Validate checks the configuration.
func (c *Scenario) Validate() error {
	switch c.Kind {
	case "testbed", "scaled":
	case "custom":
		if c.Custom == nil {
			return fmt.Errorf("%w: kind custom needs a custom block", ErrConfig)
		}
		if err := c.Custom.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: kind %q (want testbed, scaled or custom)", ErrConfig, c.Kind)
	}
	switch c.Mode {
	case "", "spotdc", "capped", "maxperf":
	default:
		return fmt.Errorf("%w: mode %q (want spotdc, capped or maxperf)", ErrConfig, c.Mode)
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if c.Kind != "custom" && c.Slots <= 0 {
		return fmt.Errorf("%w: slots %d must be positive", ErrConfig, c.Slots)
	}
	if c.Kind == "scaled" && c.Tenants <= 0 {
		return fmt.Errorf("%w: kind scaled needs tenants > 0", ErrConfig)
	}
	if c.BidLossProb < 0 || c.BidLossProb > 1 {
		return fmt.Errorf("%w: bid_loss_prob %v outside [0,1]", ErrConfig, c.BidLossProb)
	}
	return nil
}

func (c *Scenario) policy() (tenant.BidPolicy, error) {
	switch c.Policy {
	case "", "elastic":
		return tenant.PolicyElastic, nil
	case "simple":
		return tenant.PolicySimple, nil
	case "step":
		return tenant.PolicyStep, nil
	case "full":
		return tenant.PolicyFull, nil
	default:
		return 0, fmt.Errorf("%w: policy %q", ErrConfig, c.Policy)
	}
}

// RunMode converts the config's mode string.
func (c *Scenario) RunMode() (sim.Mode, error) {
	switch c.Mode {
	case "", "spotdc":
		return sim.ModeSpotDC, nil
	case "capped":
		return sim.ModePowerCapped, nil
	case "maxperf":
		return sim.ModeMaxPerf, nil
	default:
		return 0, fmt.Errorf("%w: mode %q", ErrConfig, c.Mode)
	}
}

// Build materializes the sim.Scenario.
func (c *Scenario) Build() (sim.Scenario, error) {
	if err := c.Validate(); err != nil {
		return sim.Scenario{}, err
	}
	pol, err := c.policy()
	if err != nil {
		return sim.Scenario{}, err
	}
	tb := sim.TestbedOptions{
		Seed:                c.Seed,
		Slots:               c.Slots,
		SlotSeconds:         c.SlotSeconds,
		OtherVolatility:     c.OtherVolatility,
		OtherMeanFrac:       c.OtherMeanFrac,
		SprintBurstFraction: c.SprintBurstFraction,
		OppActiveFraction:   c.OppActiveFraction,
		SprintPhase:         c.SprintPhase,
		Policy:              pol,
		CapacityScale:       c.CapacityScale,
		PriceStep:           c.PriceStep,
		UnderPrediction:     c.UnderPrediction,
	}
	var sc sim.Scenario
	switch c.Kind {
	case "testbed":
		sc, err = sim.Testbed(tb)
	case "scaled":
		jitter := c.JitterFrac
		sc, err = sim.Scaled(sim.ScaledOptions{Testbed: tb, Tenants: c.Tenants, JitterFrac: jitter})
	case "custom":
		sc, err = c.Custom.Build()
	}
	if err != nil {
		return sim.Scenario{}, err
	}
	sc.BidLossProb = c.BidLossProb
	sc.FaultSeed = c.FaultSeed
	return sc, nil
}

// OtherLeasedWatts returns the non-participating lease the profit baseline
// should include for this configuration.
func (c *Scenario) OtherLeasedWatts() float64 {
	switch c.Kind {
	case "scaled":
		return 500 * float64((c.Tenants+7)/8)
	case "custom":
		if c.Custom == nil {
			return 0
		}
		sum := 0.0
		for _, o := range c.Custom.Others {
			sum += o.Leased
		}
		return sum
	default:
		return 500
	}
}

// Read parses a configuration, rejecting unknown fields so typos fail
// loudly.
func Read(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Scenario
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads a configuration file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
