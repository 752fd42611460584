package workload

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	if Sprinting.String() != "sprinting" || Opportunistic.String() != "opportunistic" {
		t.Error("Class strings wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still print")
	}
}

func TestLatencyModelValidate(t *testing.T) {
	ok := SearchModel()
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LatencyModel{
		{Name: "x", IdleWatts: 100, PeakWatts: 50, MaxRate: 1, BaseMS: 1, CapMS: 2},
		{Name: "x", IdleWatts: -1, PeakWatts: 50, MaxRate: 1, BaseMS: 1, CapMS: 2},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxRate: 0, BaseMS: 1, CapMS: 2},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxRate: 1, BaseMS: 0, CapMS: 2},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxRate: 1, BaseMS: 5, CapMS: 4},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxRate: 1, BaseMS: 1, CapMS: 2, Exponent: -1},
	}
	for i, m := range bad {
		if err := m.validate(); !errors.Is(err, errModel) {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestLatencyModelRate(t *testing.T) {
	m := SearchModel()
	if got := m.Rate(m.IdleWatts); got != 0 {
		t.Errorf("Rate at idle = %v, want 0", got)
	}
	if got := m.Rate(m.IdleWatts - 10); got != 0 {
		t.Errorf("Rate below idle = %v, want 0", got)
	}
	if got := m.Rate(m.PeakWatts); math.Abs(got-m.MaxRate) > 1e-9 {
		t.Errorf("Rate at peak = %v, want %v", got, m.MaxRate)
	}
	if got := m.Rate(m.PeakWatts + 100); math.Abs(got-m.MaxRate) > 1e-9 {
		t.Errorf("Rate above peak = %v, want clamped to %v", got, m.MaxRate)
	}
	mid := (m.IdleWatts + m.PeakWatts) / 2
	if got := m.Rate(mid); math.Abs(got-m.MaxRate/2) > 1e-9 {
		t.Errorf("linear Rate at midpoint = %v, want %v", got, m.MaxRate/2)
	}
}

func TestLatencyModelLatency(t *testing.T) {
	m := SearchModel()
	if got := m.LatencyMS(0, m.PeakWatts); got != m.BaseMS {
		t.Errorf("zero load latency = %v, want base %v", got, m.BaseMS)
	}
	// Saturated: load above what the budget sustains.
	if got := m.LatencyMS(m.MaxRate+1, m.PeakWatts); got != m.CapMS {
		t.Errorf("overload latency = %v, want cap %v", got, m.CapMS)
	}
	if got := m.LatencyMS(10, m.IdleWatts); got != m.CapMS {
		t.Errorf("no-headroom latency = %v, want cap", got)
	}
	// Monotone: more power → lower latency at fixed load.
	load := 80.0
	l1 := m.LatencyMS(load, 140)
	l2 := m.LatencyMS(load, 180)
	if l2 >= l1 {
		t.Errorf("latency did not improve with power: %v → %v", l1, l2)
	}
	// Monotone: more load → higher latency at fixed power.
	if m.LatencyMS(100, 180) <= m.LatencyMS(50, 180) {
		t.Error("latency did not rise with load")
	}
}

func TestPowerForLatency(t *testing.T) {
	m := SearchModel()
	load := 90.0
	target := 100.0
	w, ok := m.PowerForLatency(load, target)
	if !ok {
		t.Fatalf("target should be achievable, got power %v", w)
	}
	// The returned budget must actually achieve the target.
	if got := m.LatencyMS(load, w); got > target+1e-6 {
		t.Errorf("LatencyMS at returned power = %v > target %v", got, target)
	}
	// And be minimal: a watt less should miss it.
	if got := m.LatencyMS(load, w-1); got <= target {
		t.Errorf("power not minimal: %v still meets target at 1 W less", got)
	}
	if _, ok := m.PowerForLatency(load, m.BaseMS); ok {
		t.Error("sub-base-latency target should be unachievable")
	}
	if _, ok := m.PowerForLatency(m.MaxRate*2, 100); ok {
		t.Error("load beyond max rate should be unachievable")
	}
	if w, ok := m.PowerForLatency(0, 100); !ok || w != m.IdleWatts {
		t.Errorf("zero load power = %v, %v; want idle, true", w, ok)
	}
}

func TestThroughputModelValidate(t *testing.T) {
	if err := WordCountModel().validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ThroughputModel{
		{Name: "x", IdleWatts: 100, PeakWatts: 50, MaxUnits: 1},
		{Name: "x", IdleWatts: -1, PeakWatts: 50, MaxUnits: 1},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxUnits: 0},
		{Name: "x", IdleWatts: 1, PeakWatts: 50, MaxUnits: 1, Exponent: 1.5},
	}
	for i, m := range bad {
		if err := m.validate(); !errors.Is(err, errModel) {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestThroughputModel(t *testing.T) {
	m := WordCountModel()
	if got := m.Throughput(m.IdleWatts); got != 0 {
		t.Errorf("Throughput at idle = %v", got)
	}
	if got := m.Throughput(m.PeakWatts); math.Abs(got-m.MaxUnits) > 1e-9 {
		t.Errorf("Throughput at peak = %v, want %v", got, m.MaxUnits)
	}
	if got := m.Throughput(m.PeakWatts + 50); math.Abs(got-m.MaxUnits) > 1e-9 {
		t.Errorf("Throughput above peak = %v, want clamped", got)
	}
	// Concavity: first 30 W above idle buy more than the next 30 W.
	d1 := m.Throughput(m.IdleWatts+30) - m.Throughput(m.IdleWatts)
	d2 := m.Throughput(m.IdleWatts+60) - m.Throughput(m.IdleWatts+30)
	if d2 >= d1 {
		t.Errorf("throughput curve not concave: %v then %v", d1, d2)
	}
}

func TestSprintCost(t *testing.T) {
	c := SprintCost{A: 1, B: 2, SLOms: 100}
	if got := c.PerJob(50); got != 50 {
		t.Errorf("below SLO: %v, want 50 (linear)", got)
	}
	if got := c.PerJob(100); got != 100 {
		t.Errorf("at SLO: %v, want 100", got)
	}
	// 10 ms over: 110 + 2·100 = 310.
	if got := c.PerJob(110); got != 310 {
		t.Errorf("above SLO: %v, want 310 (quadratic penalty)", got)
	}
	if got := c.RatePerHour(50, 2); got != 50*2*3600 {
		t.Errorf("RatePerHour = %v", got)
	}
}

func TestOppCost(t *testing.T) {
	c := OppCost{DollarPerUnit: 0.5}
	if got := c.RatePerHour(2); got != 0.5*2*3600 {
		t.Errorf("RatePerHour = %v", got)
	}
}

func TestSprintGainCurve(t *testing.T) {
	m := SearchModel()
	c := DefaultSprintCost()
	// Load high enough that the 145 W reservation misses the SLO.
	load := 100.0
	if m.LatencyMS(load, 145) <= c.SLOms {
		t.Fatalf("test premise broken: latency %v at reservation should violate SLO", m.LatencyMS(load, 145))
	}
	gain := SprintGainCurve(m, c, load, 145)
	if got := gain(0); got != 0 {
		t.Errorf("gain(0) = %v, want 0", got)
	}
	if got := gain(-5); got != 0 {
		t.Errorf("gain(-5) = %v, want 0", got)
	}
	g30 := gain(30)
	g60 := gain(60)
	if g30 <= 0 {
		t.Errorf("gain(30) = %v, want positive (SLO restored)", g30)
	}
	if g60 < g30 {
		t.Errorf("gain not non-decreasing: %v then %v", g30, g60)
	}
}

func TestOppGainCurve(t *testing.T) {
	m := GraphModel()
	c := DefaultOppCost()
	gain := OppGainCurve(m, c, 115)
	if got := gain(0); got != 0 {
		t.Errorf("gain(0) = %v", got)
	}
	g20 := gain(20)
	g40 := gain(40)
	if g20 <= 0 || g40 < g20 {
		t.Errorf("gain curve: g(20)=%v g(40)=%v", g20, g40)
	}
	// Concavity (diminishing returns) — required by MaxPerf.
	if g40-g20 >= g20 {
		t.Errorf("gain curve not concave: increments %v then %v", g20, g40-g20)
	}
}

func TestPresetsValidateAndPerformanceBand(t *testing.T) {
	// All latency presets validate and their guaranteed-vs-peak speedups
	// fall in the paper's 1.2–1.8× band (Fig. 12(b)) at representative high
	// load.
	type pair struct {
		m        LatencyModel
		reserved float64
		load     float64
	}
	// Loads chosen so the reservation is stressed but not saturated; the
	// queueing nonlinearity means saturated slots clamp at CapMS and the
	// ratio is then governed by the load generator's timeout, not the model.
	lat := []pair{
		{SearchModel(), 145, 70},
		{WebModel(), 115, 55},
	}
	for _, p := range lat {
		if err := p.m.validate(); err != nil {
			t.Fatalf("%s: %v", p.m.Name, err)
		}
		capped := p.m.LatencyMS(p.load, p.reserved)
		full := p.m.LatencyMS(p.load, p.m.PeakWatts)
		ratio := capped / full // inverse-latency performance ratio
		if ratio < 1.2 || ratio > 5 {
			t.Errorf("%s speedup %.2f outside plausible band (capped %v ms, full %v ms)",
				p.m.Name, ratio, capped, full)
		}
	}
	type tpair struct {
		m        ThroughputModel
		reserved float64
	}
	thr := []tpair{
		{WordCountModel(), 125},
		{TeraSortModel(), 125},
		{GraphModel(), 115},
	}
	for _, p := range thr {
		if err := p.m.validate(); err != nil {
			t.Fatalf("%s: %v", p.m.Name, err)
		}
		ratio := p.m.Throughput(p.m.PeakWatts) / p.m.Throughput(p.reserved)
		if ratio < 1.2 || ratio > 1.8 {
			t.Errorf("%s peak/reserved throughput ratio %.2f outside paper band [1.2, 1.8]", p.m.Name, ratio)
		}
	}
}

// Property: latency is non-increasing in power and non-decreasing in load;
// throughput is non-decreasing in power. These monotonicity properties are
// what make the demand and gain curves well-behaved.
func TestQuickModelMonotonicity(t *testing.T) {
	m := SearchModel()
	tm := WordCountModel()
	f := func(loadRaw, p1Raw, p2Raw uint16) bool {
		load := float64(loadRaw % 200)
		p1 := float64(p1Raw % 250)
		p2 := p1 + float64(p2Raw%100)
		if m.LatencyMS(load, p2) > m.LatencyMS(load, p1)+1e-9 {
			return false
		}
		if m.LatencyMS(load+10, p1) < m.LatencyMS(load, p1)-1e-9 {
			return false
		}
		return tm.Throughput(p2) >= tm.Throughput(p1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: PowerForLatency is a consistent inverse of its forward model
// wherever it reports ok.
func TestQuickInverseConsistency(t *testing.T) {
	m := WebModel()
	f := func(loadRaw, targetRaw uint16) bool {
		load := float64(loadRaw % 130)
		target := 50 + float64(targetRaw%300)
		if w, ok := m.PowerForLatency(load, target); ok {
			if m.LatencyMS(load, w) > target+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// errModel reports an invalid model configuration.
var errModel = errors.New("workload: invalid model")

// validate checks a model's parameters; the built-in presets must pass it.
func (m LatencyModel) validate() error {
	switch {
	case m.PeakWatts <= m.IdleWatts:
		return fmt.Errorf("%w: %s peak %v ≤ idle %v", errModel, m.Name, m.PeakWatts, m.IdleWatts)
	case m.IdleWatts < 0:
		return fmt.Errorf("%w: %s idle %v negative", errModel, m.Name, m.IdleWatts)
	case m.MaxRate <= 0:
		return fmt.Errorf("%w: %s max rate %v", errModel, m.Name, m.MaxRate)
	case m.BaseMS <= 0:
		return fmt.Errorf("%w: %s base latency %v", errModel, m.Name, m.BaseMS)
	case m.CapMS <= m.BaseMS:
		return fmt.Errorf("%w: %s cap %v ≤ base %v", errModel, m.Name, m.CapMS, m.BaseMS)
	case m.Exponent < 0:
		return fmt.Errorf("%w: %s exponent %v negative", errModel, m.Name, m.Exponent)
	}
	return nil
}

// validate checks a model's parameters; the built-in presets must pass it.
func (m ThroughputModel) validate() error {
	switch {
	case m.PeakWatts <= m.IdleWatts:
		return fmt.Errorf("%w: %s peak %v ≤ idle %v", errModel, m.Name, m.PeakWatts, m.IdleWatts)
	case m.IdleWatts < 0:
		return fmt.Errorf("%w: %s idle %v negative", errModel, m.Name, m.IdleWatts)
	case m.MaxUnits <= 0:
		return fmt.Errorf("%w: %s max units %v", errModel, m.Name, m.MaxUnits)
	case m.Exponent < 0 || m.Exponent > 1:
		return fmt.Errorf("%w: %s exponent %v outside (0,1]", errModel, m.Name, m.Exponent)
	}
	return nil
}
