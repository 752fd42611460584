package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// concaveGain builds a diminishing-returns gain curve saturating at
// `scale` $/h as watts grow with rate constant alpha.
func concaveGain(scale, alpha float64) GainFunc {
	return func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return scale * (1 - math.Exp(-alpha*w))
	}
}

func TestMaxPerfValidation(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 150)
	if _, err := MaxPerf(Constraints{RackHeadroom: []float64{1}, RackPDU: []int{0, 0}, PDUSpot: []float64{1}}, nil, MaxPerfOptions{}); err == nil {
		t.Error("invalid constraints accepted")
	}
	if _, err := MaxPerf(cons, []MaxPerfRequest{{Rack: 99, MaxWatts: 1, Gain: concaveGain(1, 1)}}, MaxPerfOptions{}); err == nil {
		t.Error("out-of-range rack accepted")
	}
	if _, err := MaxPerf(cons, []MaxPerfRequest{{Rack: 0, MaxWatts: 1}}, MaxPerfOptions{}); err == nil {
		t.Error("nil gain accepted")
	}
	if _, err := MaxPerf(cons, []MaxPerfRequest{{Rack: 0, MaxWatts: -1, Gain: concaveGain(1, 1)}}, MaxPerfOptions{}); err == nil {
		t.Error("negative MaxWatts accepted")
	}
}

func TestMaxPerfEmpty(t *testing.T) {
	allocs, err := MaxPerf(twoPDUConstraints(100, 100, 150), nil, MaxPerfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 0 {
		t.Errorf("allocs = %v", allocs)
	}
}

func TestMaxPerfSingleRackSaturates(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 150)
	reqs := []MaxPerfRequest{{Rack: 0, MaxWatts: 40, Gain: concaveGain(10, 0.1)}}
	allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Marginal gain stays positive everywhere, so the rack should be filled
	// to its 40 W request (headroom is 60, PDU 100 — neither binds).
	if math.Abs(allocs[0].Watts-40) > 1e-9 {
		t.Errorf("alloc = %v, want 40", allocs[0].Watts)
	}
}

func TestMaxPerfPrefersHigherMarginalGain(t *testing.T) {
	// Two racks compete for 50 W of PDU spot. Rack 0's gain curve is much
	// steeper, so it should receive most of the capacity.
	cons := twoPDUConstraints(50, 500, 1000)
	reqs := []MaxPerfRequest{
		{Rack: 0, MaxWatts: 60, Gain: concaveGain(20, 0.08)},
		{Rack: 1, MaxWatts: 60, Gain: concaveGain(2, 0.08)},
	}
	allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := allocs[0].Watts + allocs[1].Watts
	if total > 50+1e-9 {
		t.Errorf("total %v exceeds PDU spot 50", total)
	}
	if allocs[0].Watts <= allocs[1].Watts {
		t.Errorf("steeper curve got %v, flatter got %v", allocs[0].Watts, allocs[1].Watts)
	}
}

func TestMaxPerfEqualCurvesSplitEvenly(t *testing.T) {
	cons := twoPDUConstraints(60, 500, 1000)
	g := concaveGain(10, 0.05)
	reqs := []MaxPerfRequest{
		{Rack: 0, MaxWatts: 100, Gain: g},
		{Rack: 1, MaxWatts: 100, Gain: g},
	}
	allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(allocs[0].Watts-allocs[1].Watts) > 2 {
		t.Errorf("equal curves split %v / %v", allocs[0].Watts, allocs[1].Watts)
	}
}

func TestMaxPerfRespectsUPS(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 70)
	reqs := []MaxPerfRequest{
		{Rack: 0, MaxWatts: 60, Gain: concaveGain(10, 0.1)},
		{Rack: 4, MaxWatts: 60, Gain: concaveGain(10, 0.1)},
	}
	allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := allocs[0].Watts + allocs[1].Watts
	if total > 70+1e-9 {
		t.Errorf("total %v exceeds UPS spot 70", total)
	}
	if total < 69 {
		t.Errorf("total %v should nearly exhaust the 70 W UPS (positive marginals)", total)
	}
}

func TestMaxPerfZeroGainGetsNothing(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 200)
	reqs := []MaxPerfRequest{{Rack: 0, MaxWatts: 50, Gain: func(float64) float64 { return 0 }}}
	allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].Watts != 0 {
		t.Errorf("zero-gain rack got %v W", allocs[0].Watts)
	}
}

func TestMaxPerfBeatsOrMatchesMarketGain(t *testing.T) {
	// MaxPerf is the upper bound the paper normalizes against (Fig. 12(b)):
	// given the same gain curves, its total gain must be ≥ what the profit-
	// maximizing market delivers.
	cons := twoPDUConstraints(60, 60, 100)
	gains := []GainFunc{concaveGain(8, 0.06), concaveGain(4, 0.06), concaveGain(6, 0.06)}
	racks := []int{0, 1, 4}
	reqs := make([]MaxPerfRequest, len(racks))
	for i, r := range racks {
		reqs[i] = MaxPerfRequest{Rack: r, MaxWatts: 60, Gain: gains[i]}
	}
	mpAllocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
	if err != nil {
		t.Fatal(err)
	}
	mpGain := totalGain(reqs, mpAllocs)

	mkt, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 60, DMin: 5, QMin: 0.05, QMax: 0.3}},
		{Rack: 4, Fn: LinearBid{DMax: 60, DMin: 5, QMin: 0.05, QMax: 0.35}},
	}
	res, err := mkt.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	marketGain := 0.0
	for i, a := range res.Allocations {
		marketGain += gains[i](a.Watts)
	}
	if mpGain+1e-6 < marketGain {
		t.Errorf("MaxPerf gain %v below market gain %v", mpGain, marketGain)
	}
}

// Property: MaxPerf allocations always satisfy all constraints and never
// exceed the per-request MaxWatts.
func TestQuickMaxPerfFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRacks := 4 + rng.Intn(6)
		nPDUs := 1 + rng.Intn(2)
		cons := Constraints{
			RackHeadroom: make([]float64, nRacks),
			RackPDU:      make([]int, nRacks),
			PDUSpot:      make([]float64, nPDUs),
		}
		for r := 0; r < nRacks; r++ {
			cons.RackHeadroom[r] = rng.Float64() * 80
			cons.RackPDU[r] = rng.Intn(nPDUs)
		}
		for m := 0; m < nPDUs; m++ {
			cons.PDUSpot[m] = rng.Float64() * 120
		}
		cons.UPSSpot = rng.Float64() * 120 * float64(nPDUs)
		var reqs []MaxPerfRequest
		for r := 0; r < nRacks; r++ {
			reqs = append(reqs, MaxPerfRequest{
				Rack:     r,
				MaxWatts: rng.Float64() * 100,
				Gain:     concaveGain(1+rng.Float64()*10, 0.01+rng.Float64()*0.2),
			})
		}
		allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 2})
		if err != nil {
			return false
		}
		mkt, err := NewMarket(cons, Options{})
		if err != nil {
			return false
		}
		if err := mkt.VerifyFeasible(allocs); err != nil {
			return false
		}
		for i, a := range allocs {
			if a.Watts > reqs[i].MaxWatts+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: for concave gains, greedy water-filling is within one quantum
// per rack of any feasible alternative allocation produced by scaling.
func TestQuickMaxPerfNotDominated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cons := twoPDUConstraints(30+rng.Float64()*60, 30+rng.Float64()*60, 50+rng.Float64()*100)
		gains := []GainFunc{
			concaveGain(1+rng.Float64()*5, 0.05),
			concaveGain(1+rng.Float64()*5, 0.05),
			concaveGain(1+rng.Float64()*5, 0.05),
		}
		reqs := []MaxPerfRequest{
			{Rack: 0, MaxWatts: 60, Gain: gains[0]},
			{Rack: 1, MaxWatts: 60, Gain: gains[1]},
			{Rack: 4, MaxWatts: 60, Gain: gains[2]},
		}
		allocs, err := MaxPerf(cons, reqs, MaxPerfOptions{QuantumWatts: 1})
		if err != nil {
			return false
		}
		got := totalGain(reqs, allocs)
		// A simple feasible competitor: proportional split of each PDU's
		// spot (and of the UPS) across its racks.
		competitor := []Allocation{
			{Rack: 0, Watts: math.Min(60, math.Min(cons.RackHeadroom[0], math.Min(cons.PDUSpot[0]/2, cons.UPSSpot/3)))},
			{Rack: 1, Watts: math.Min(60, math.Min(cons.RackHeadroom[1], math.Min(cons.PDUSpot[0]/2, cons.UPSSpot/3)))},
			{Rack: 4, Watts: math.Min(60, math.Min(cons.RackHeadroom[4], math.Min(cons.PDUSpot[1], cons.UPSSpot/3)))},
		}
		alt := totalGain(reqs, competitor)
		// Allow slack of 3 quanta worth of the steepest marginal.
		slack := 3.0 * 0.3
		return got+slack >= alt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// totalGain evaluates the summed performance gain of an allocation under
// the given requests (index-aligned, as MaxPerf returns them).
func totalGain(reqs []MaxPerfRequest, allocs []Allocation) float64 {
	sum := 0.0
	for i, a := range allocs {
		if i < len(reqs) && reqs[i].Gain != nil {
			sum += reqs[i].Gain(a.Watts)
		}
	}
	return sum
}
