// Package capping implements the tenant-side power-capping loop the paper
// assumes throughout ("tenants with insufficient capacity reservation need
// to cap power, e.g., scaling down CPU"): a feedback controller that
// tracks a rack power budget by actuating a CPU frequency/power-limit
// knob, RAPL-style, with watt-level granularity.
//
// The controller is what lets a tenant honour a *changing* budget — its
// guaranteed capacity plus whatever spot capacity the market granted for
// the current slot — without overshooting into an involuntary power cut.
package capping

import (
	"errors"
	"fmt"
	"math"
)

// ErrController reports an invalid controller configuration.
var ErrController = errors.New("capping: invalid controller")

// ServerModel maps the actuator setting and the offered load to rack
// power: power = idle + (peak − idle) · util(load) · knob^Alpha. It is the
// plant the controller acts on.
type ServerModel struct {
	// IdleWatts and PeakWatts bound the rack draw.
	IdleWatts, PeakWatts float64
	// Alpha shapes the knob→power relation; DVFS is roughly cubic in
	// frequency for the dynamic part, but package limits behave closer to
	// linear. Default 1.5.
	Alpha float64
	// MinKnob is the lowest actuator setting (deepest cap); typical RAPL
	// limits bottom out near 0.3 of peak dynamic power. Default 0.2.
	MinKnob float64
}

// Validate checks the model.
func (m ServerModel) Validate() error {
	switch {
	case m.PeakWatts <= m.IdleWatts:
		return fmt.Errorf("%w: peak %v ≤ idle %v", ErrController, m.PeakWatts, m.IdleWatts)
	case m.IdleWatts < 0:
		return fmt.Errorf("%w: idle %v negative", ErrController, m.IdleWatts)
	case m.Alpha < 0:
		return fmt.Errorf("%w: alpha %v negative", ErrController, m.Alpha)
	case m.MinKnob < 0 || m.MinKnob > 1:
		return fmt.Errorf("%w: min knob %v outside [0,1]", ErrController, m.MinKnob)
	}
	return nil
}

// Normalized returns the model with unset (zero) fields replaced by their
// documented defaults: Alpha 1.5, MinKnob 0.2. New normalizes the model it
// stores, so a Controller's model always carries explicit values — an
// explicit zero is "unset" by contract (use a small epsilon for a
// near-zero exponent or floor).
func (m ServerModel) Normalized() ServerModel {
	if m.Alpha == 0 {
		m.Alpha = 1.5
	}
	if m.MinKnob == 0 {
		m.MinKnob = 0.2
	}
	return m
}

func (m ServerModel) alpha() float64 {
	if m.Alpha == 0 {
		return 1.5
	}
	return m.Alpha
}

func (m ServerModel) minKnob() float64 {
	if m.MinKnob == 0 {
		return 0.2
	}
	return m.MinKnob
}

// Power returns the rack draw at the given utilization (0–1, from the
// offered load) and actuator setting (MinKnob–1).
func (m ServerModel) Power(util, knob float64) float64 {
	util = clamp(util, 0, 1)
	knob = clamp(knob, m.minKnob(), 1)
	return m.IdleWatts + (m.PeakWatts-m.IdleWatts)*util*math.Pow(knob, m.alpha())
}

// KnobFor inverts Power: the highest actuator setting whose draw at the
// given utilization stays within budget. ok is false when even the deepest
// cap exceeds the budget (the controller then pins MinKnob and the rack
// still overshoots — the operator's involuntary-cut territory).
func (m ServerModel) KnobFor(util, budgetWatts float64) (knob float64, ok bool) {
	util = clamp(util, 0, 1)
	dynamic := budgetWatts - m.IdleWatts
	if util <= 0 {
		return 1, m.IdleWatts <= budgetWatts
	}
	if dynamic <= 0 {
		return m.minKnob(), false
	}
	raw := math.Pow(dynamic/((m.PeakWatts-m.IdleWatts)*util), 1/m.alpha())
	if raw >= 1 {
		return 1, true
	}
	if raw < m.minKnob() {
		return m.minKnob(), false
	}
	return raw, true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// The PI gains in knob-units per watt of error: kp is proportional, ki
// integral (per tick).
const (
	kp = 0.002
	ki = 0.0005
)

// Controller is a proportional-integral power-cap controller: each control
// tick it observes the measured draw, compares it to the budget, and nudges
// the actuator. The PI form tolerates model error between the assumed
// ServerModel and the real draw.
type Controller struct {
	model ServerModel
	// state
	knob     float64
	integral float64
	budget   float64
	// lastUtil is the most recent utilization reported to Tick; SetBudget
	// uses it to feed-forward the knob. It starts at 1 (full load), the
	// conservative guess: at full utilization the model predicts the
	// deepest knob for a given budget, so a feed-forward jump from a stale
	// utilization can only undershoot the budget, never overshoot it.
	lastUtil float64
}

// Config parameterizes a Controller.
type Config struct {
	// Model is the assumed plant.
	Model ServerModel
	// InitialBudget is the starting power budget in watts.
	InitialBudget float64
}

// New builds a controller at full throttle.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialBudget < 0 {
		return nil, fmt.Errorf("%w: negative budget", ErrController)
	}
	return &Controller{
		model:    cfg.Model.Normalized(),
		knob:     1,
		budget:   cfg.InitialBudget,
		lastUtil: 1,
	}, nil
}

// SetBudget updates the tracked power budget — called at every slot
// boundary with guaranteed + granted spot capacity. The integrator resets
// so stale error does not fight the new set point.
func (c *Controller) SetBudget(watts float64) error {
	if watts < 0 {
		return fmt.Errorf("%w: negative budget", ErrController)
	}
	c.budget = watts
	c.integral = 0
	// Feed-forward: jump near the model's predicted knob so convergence
	// takes a couple of ticks, not tens. The last reported utilization
	// stands in for the current one; PI ticks correct the residual.
	if ff, ok := c.model.KnobFor(c.lastUtil, watts); ok {
		c.knob = ff
	} else {
		c.knob = c.model.minKnob()
	}
	return nil
}

// Knob returns the current actuator setting.
func (c *Controller) Knob() float64 { return c.knob }

// Tick runs one control period: the caller reports the measured draw and
// current utilization; the controller adjusts and returns the new actuator
// setting.
func (c *Controller) Tick(measuredWatts, util float64) float64 {
	c.lastUtil = clamp(util, 0, 1)
	err := c.budget - measuredWatts // positive error: headroom to spend
	c.integral += err
	// Anti-windup: bound the integral's contribution to a full knob swing,
	// i.e. |ki·integral| ≤ 1.
	maxI := 1 / ki
	c.integral = clamp(c.integral, -maxI, maxI)
	c.knob = clamp(c.knob+kp*err+ki*c.integral, c.model.minKnob(), 1)
	// Feed-forward clamp: never command a knob the model predicts would
	// overshoot the budget at current utilization.
	if ff, ok := c.model.KnobFor(util, c.budget); ok && c.knob > ff {
		c.knob = ff
	} else if !ok {
		c.knob = c.model.minKnob()
	}
	return c.knob
}

// Settle runs ticks against the model itself (no plant error) until the
// draw is within tol watts of min(budget, unconstrained draw) or maxTicks
// elapse, returning the settled power and tick count. It is the
// pure-simulation path used by tests and by slot-level simulators that do
// not model intra-slot dynamics.
func (c *Controller) Settle(util, tol float64, maxTicks int) (watts float64, ticks int) {
	watts = c.model.Power(util, c.knob)
	for ticks = 0; ticks < maxTicks; ticks++ {
		target := math.Min(c.budget, c.model.Power(util, 1))
		if math.Abs(watts-target) <= tol {
			return watts, ticks
		}
		c.Tick(watts, util)
		watts = c.model.Power(util, c.knob)
	}
	return watts, ticks
}
