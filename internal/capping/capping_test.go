package capping

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func testModel() ServerModel {
	return ServerModel{IdleWatts: 60, PeakWatts: 205, Alpha: 1.5, MinKnob: 0.2}
}

func TestServerModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ServerModel{
		{IdleWatts: 100, PeakWatts: 50},
		{IdleWatts: -1, PeakWatts: 50},
		{IdleWatts: 1, PeakWatts: 50, Alpha: -1},
		{IdleWatts: 1, PeakWatts: 50, MinKnob: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrController) {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestServerModelPower(t *testing.T) {
	m := testModel()
	if got := m.Power(0, 1); got != 60 {
		t.Errorf("zero util power = %v, want idle", got)
	}
	if got := m.Power(1, 1); math.Abs(got-205) > 1e-9 {
		t.Errorf("full power = %v, want peak", got)
	}
	// Monotone in both arguments.
	if m.Power(0.5, 1) <= m.Power(0.5, 0.5) {
		t.Error("power not monotone in knob")
	}
	if m.Power(1, 0.8) <= m.Power(0.5, 0.8) {
		t.Error("power not monotone in util")
	}
	// Clamping: out-of-range inputs stay in the envelope.
	if got := m.Power(2, 2); got > 205+1e-9 {
		t.Errorf("clamped power = %v", got)
	}
	if got := m.Power(-1, 0.01); got < 60-1e-9 {
		t.Errorf("clamped power = %v", got)
	}
}

func TestKnobForInvertsPower(t *testing.T) {
	m := testModel()
	for _, util := range []float64{0.2, 0.5, 0.9} {
		for _, budget := range []float64{100, 145, 180} {
			knob, ok := m.KnobFor(util, budget)
			if !ok {
				// Only acceptable if even the deepest cap overshoots.
				if m.Power(util, m.MinKnob) <= budget {
					t.Errorf("util %v budget %v: ok=false but min knob fits", util, budget)
				}
				continue
			}
			p := m.Power(util, knob)
			if p > budget+1e-6 {
				t.Errorf("util %v budget %v: knob %v draws %v", util, budget, knob, p)
			}
			// Maximal: a slightly higher knob (if allowed) would overshoot,
			// unless already at full throttle.
			if knob < 1 {
				if m.Power(util, math.Min(1, knob*1.05)) <= budget {
					t.Errorf("util %v budget %v: knob %v not maximal", util, budget, knob)
				}
			}
		}
	}
	// Idle exceeding budget can never fit.
	if _, ok := m.KnobFor(0.5, 50); ok {
		t.Error("budget below idle accepted")
	}
	if knob, ok := m.KnobFor(0, 100); !ok || knob != 1 {
		t.Errorf("zero util: %v, %v", knob, ok)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Model: ServerModel{IdleWatts: 10, PeakWatts: 5}}); err == nil {
		t.Error("bad model accepted")
	}
	if _, err := New(Config{Model: testModel(), InitialBudget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	c, err := New(Config{Model: testModel(), InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	if c.Knob() != 1 || c.budget != 145 {
		t.Errorf("initial state: knob=%v budget=%v", c.Knob(), c.budget)
	}
}

func TestControllerSettlesUnderBudget(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	// High utilization: unconstrained draw would be ~205 W; the controller
	// must cap to 145 W.
	watts, ticks := c.Settle(1.0, 1.0, 200)
	if watts > 145+1 {
		t.Errorf("settled at %v W over the 145 W budget", watts)
	}
	if watts < 135 {
		t.Errorf("settled at %v W, needlessly deep below budget", watts)
	}
	if ticks >= 200 {
		t.Errorf("did not settle in %d ticks", ticks)
	}
}

func TestControllerReleasesCapWhenBudgetRises(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	if _, ticks := c.Settle(1.0, 1.0, 200); ticks >= 200 {
		t.Fatal("initial settle failed")
	}
	// Spot capacity granted: budget jumps to 195 W; the controller must
	// raise the knob and use it.
	if err := c.SetBudget(195); err != nil {
		t.Fatal(err)
	}
	watts, ticks := c.Settle(1.0, 1.0, 400)
	if watts > 195+1 {
		t.Errorf("over new budget: %v", watts)
	}
	if watts < 185 {
		t.Errorf("failed to exploit the raised budget: settled at %v W (%d ticks)", watts, ticks)
	}
	// Spot expires: budget back to 145, cap must re-engage.
	if err := c.SetBudget(145); err != nil {
		t.Fatal(err)
	}
	watts, _ = c.Settle(1.0, 1.0, 400)
	if watts > 146 {
		t.Errorf("cap did not re-engage: %v W", watts)
	}
	if err := c.SetBudget(-1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestControllerLowUtilizationUncapped(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	// At 30% utilization the unconstrained draw (≈103.5 W) is below budget:
	// the controller should end near full throttle, not strangle the rack.
	watts, _ := c.Settle(0.3, 1.0, 300)
	want := testModel().Power(0.3, 1)
	if math.Abs(watts-want) > 2 {
		t.Errorf("settled at %v W, want ≈%v (no capping needed)", watts, want)
	}
}

func TestControllerImpossibleBudgetPinsMinKnob(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 50}) // below idle
	if err != nil {
		t.Fatal(err)
	}
	watts, _ := c.Settle(1.0, 0.5, 300)
	min := testModel().Power(1.0, testModel().MinKnob)
	if math.Abs(watts-min) > 1 {
		t.Errorf("settled at %v W, want pinned at deepest cap ≈%v", watts, min)
	}
	if c.Knob() > testModel().MinKnob+1e-9 {
		t.Errorf("knob %v above min", c.Knob())
	}
}

func TestNormalizedDefaults(t *testing.T) {
	m := ServerModel{IdleWatts: 60, PeakWatts: 205}
	n := m.Normalized()
	if n.Alpha != 1.5 || n.MinKnob != 0.2 {
		t.Errorf("Normalized() = %+v, want Alpha 1.5 MinKnob 0.2", n)
	}
	// Explicit values survive normalization.
	if e := testModel().Normalized(); e != testModel() {
		t.Errorf("Normalized() altered explicit fields: %+v", e)
	}
	// The controller stores the normalized model, so its behavior is
	// identical whether the defaults were spelled out or left zero.
	c, err := New(Config{Model: m, InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.model; got != n {
		t.Errorf("controller model = %+v, want normalized %+v", got, n)
	}
}

// Regression: SetBudget documents a feed-forward knob jump ("convergence
// takes a couple of ticks, not tens") — a budget cut must land on the
// model's predicted knob immediately, not crawl there on PI ticks.
func TestSetBudgetFeedForwardSettlesFast(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 195})
	if err != nil {
		t.Fatal(err)
	}
	if _, ticks := c.Settle(1.0, 1.0, 200); ticks >= 200 {
		t.Fatal("initial settle failed")
	}
	// Emergency reclaim: the budget is cut by 75 W. The feed-forward jump
	// must put the draw within tolerance of the new budget with at most a
	// couple of correction ticks.
	if err := c.SetBudget(120); err != nil {
		t.Fatal(err)
	}
	watts, ticks := c.Settle(1.0, 1.0, 200)
	if watts > 121 {
		t.Errorf("settled at %v W over the 120 W budget", watts)
	}
	if ticks > 2 {
		t.Errorf("budget cut took %d ticks to settle, want a feed-forward jump (≤2)", ticks)
	}
	// An impossible budget pins the deepest cap immediately.
	if err := c.SetBudget(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Knob(); got != testModel().MinKnob {
		t.Errorf("knob after impossible budget = %v, want min knob", got)
	}
}

// Regression: Tick's anti-windup clamps the integral at 1/ki ("a full knob
// swing") — the applied term must be ki·integral, so the clamped integral
// really contributes up to one full knob swing, not 1/100th of one.
func TestTickIntegralGainMatchesAntiWindupClamp(t *testing.T) {
	c, err := New(Config{Model: testModel(), InitialBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Budget above peak: the feed-forward clamp resolves to knob 1 and
	// stays out of the way; the knob move is pure PI arithmetic.
	c.Tick(500, 1.0) // err = −200
	want := clamp(1+kp*(-200)+ki*(-200), testModel().MinKnob, 1)
	if got := c.Knob(); math.Abs(got-want) > 1e-12 {
		t.Errorf("knob after one tick = %v, want %v (kp·err + ki·integral applied in full)", got, want)
	}
	// Persistent error winds the integral to the clamp; its applied
	// contribution is then exactly one full knob swing.
	for i := 0; i < 50; i++ {
		c.Tick(500, 1.0)
	}
	if got := math.Abs(ki * c.integral); math.Abs(got-1) > 1e-12 {
		t.Errorf("clamped integral contributes %v knob, want exactly 1 (full swing)", got)
	}
}

// The PI loop must absorb plant/model mismatch: with a plant drawing a
// constant 25 W above the model's prediction, the controller still settles
// the measured draw onto the budget, and the integral stays within the
// anti-windup bound throughout.
func TestControllerEliminatesSteadyStateModelError(t *testing.T) {
	m := testModel()
	c, err := New(Config{Model: m, InitialBudget: 145})
	if err != nil {
		t.Fatal(err)
	}
	const bias = 25.0
	watts := m.Power(1.0, c.Knob()) + bias
	for tick := 0; tick < 400; tick++ {
		c.Tick(watts, 1.0)
		if math.Abs(c.integral) > 1/ki+1e-9 {
			t.Fatalf("tick %d: integral %v outside anti-windup bound ±%v", tick, c.integral, 1/ki)
		}
		watts = m.Power(1.0, c.Knob()) + bias
	}
	if math.Abs(watts-145) > 1 {
		t.Errorf("steady-state draw %v W with model bias, want within 1 W of the 145 W budget", watts)
	}
}

// Property: wherever the controller settles, it never exceeds the budget
// by more than the tolerance unless even the deepest cap cannot fit.
func TestQuickControllerRespectsBudget(t *testing.T) {
	m := testModel()
	f := func(utilRaw, budgetRaw uint8) bool {
		util := float64(utilRaw%101) / 100
		budget := 60 + float64(budgetRaw%160)
		c, err := New(Config{Model: m, InitialBudget: budget})
		if err != nil {
			return false
		}
		watts, _ := c.Settle(util, 0.5, 500)
		if watts <= budget+1 {
			return true
		}
		// Overshoot is only legal when the deepest cap still overshoots.
		return m.Power(util, m.MinKnob) > budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
