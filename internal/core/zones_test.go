package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spotdc/internal/metrics"
	"spotdc/internal/otrace"
)

func TestSetExtrasValidation(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 100, 200), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Extras{
		{Zones: []Zone{{Name: "z", Racks: []int{99}, MaxWatts: 10}}},
		{Zones: []Zone{{Name: "z", Racks: []int{0}, MaxWatts: -1}}},
		{RackPhase: PhaseOf{0, 1}},                   // wrong length
		{RackPhase: PhaseOf{0, 1, 2, 3, 0, 1, 2, 0}}, // phase 3
	}
	for i, e := range bad {
		if err := m.SetExtras(e); !errors.Is(err, ErrConstraints) {
			t.Errorf("bad extras %d accepted: %v", i, err)
		}
	}
	ok := &Extras{
		Zones:     []Zone{{Name: "aisle", Racks: []int{0, 1}, MaxWatts: 80}},
		RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1},
	}
	if err := m.SetExtras(ok); err != nil {
		t.Fatal(err)
	}
	// Clearing (and mutation of the caller's extras) must not alias.
	ok.Zones[0].MaxWatts = -5
	res, err := m.Clear(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if err := m.SetExtras(nil); err != nil {
		t.Fatal(err)
	}
}

func TestZoneConstraintCapsAllocation(t *testing.T) {
	// Racks 0 and 1 share a hot aisle capped at 50 W even though their PDU
	// has 200 W of spot; inelastic step bids of 40 W each exceed the zone,
	// so the price must rise until the zone fits.
	m, err := NewMarket(twoPDUConstraints(200, 200, 400), Options{PriceStep: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetExtras(&Extras{Zones: []Zone{{Name: "aisle", Racks: []int{0, 1}, MaxWatts: 50}}}); err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 4, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}}, // other PDU, not in the zone
	}
	res, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	inZone := res.Allocations[0].Watts + res.Allocations[1].Watts
	if inZone > 50+1e-6 {
		t.Errorf("zone granted %v W of 50 W", inZone)
	}
	if err := m.VerifyExtras(res.Allocations); err != nil {
		t.Errorf("VerifyExtras: %v", err)
	}
	if err := m.VerifyFeasible(res.Allocations); err != nil {
		t.Errorf("VerifyFeasible: %v", err)
	}
	// The rack outside the zone should not be starved by the zone cap: it
	// still receives capacity at the clearing price.
	if res.Allocations[2].Watts <= 0 {
		t.Error("rack outside the zone got nothing")
	}
}

func TestZoneInfeasibleSellsNothing(t *testing.T) {
	// An inelastic bid that can never fit its 10 W zone: nothing sells.
	m, err := NewMarket(twoPDUConstraints(200, 200, 400), Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetExtras(&Extras{Zones: []Zone{{Name: "z", Racks: []int{0}, MaxWatts: 10}}}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 40, QMax: 0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts != 0 {
		t.Errorf("sold %v W into a 10 W zone", res.TotalWatts)
	}
}

func TestPhaseBalanceEnforced(t *testing.T) {
	// All demand on phase 0 of PDU 0: with phases installed and default
	// tolerance, a single loaded phase (mean = load/3, limit = mean·1.25)
	// can never be balanced, so nothing sells; spreading the same bids
	// across phases clears fine.
	cons := twoPDUConstraints(200, 200, 400)
	lopsided, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := lopsided.SetExtras(&Extras{RackPhase: PhaseOf{0, 0, 0, 0, 0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: StepBid{D: 30, QMax: 0.3}},
		{Rack: 1, Fn: StepBid{D: 30, QMax: 0.3}},
		{Rack: 2, Fn: StepBid{D: 30, QMax: 0.3}},
	}
	res, err := lopsided.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWatts != 0 {
		t.Errorf("lopsided phases sold %v W", res.TotalWatts)
	}
	balanced, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := balanced.SetExtras(&Extras{RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	res, err = balanced.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalWatts-90) > 1e-6 {
		t.Errorf("balanced phases sold %v W, want 90", res.TotalWatts)
	}
	if err := balanced.VerifyExtras(res.Allocations); err != nil {
		t.Errorf("VerifyExtras: %v", err)
	}
}

func TestPhaseImbalanceTolerance(t *testing.T) {
	// Two racks on phases 0 and 1 with 40 W and 30 W: mean is 23.3, the
	// default 25% tolerance allows 29.2 — infeasible. A generous 100%
	// tolerance allows 46.7 — feasible.
	cons := twoPDUConstraints(200, 200, 400)
	bids := []Bid{
		{Rack: 0, Fn: StepBid{D: 40, QMax: 0.3}},
		{Rack: 1, Fn: StepBid{D: 30, QMax: 0.3}},
	}
	strict, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.SetExtras(&Extras{RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	rs, err := strict.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalWatts != 0 {
		t.Errorf("default tolerance sold %v W despite imbalance", rs.TotalWatts)
	}
	loose, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := loose.SetExtras(&Extras{RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1}, PhaseImbalance: 1.0}); err != nil {
		t.Fatal(err)
	}
	rl, err := loose.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rl.TotalWatts-70) > 1e-6 {
		t.Errorf("loose tolerance sold %v W, want 70", rl.TotalWatts)
	}
}

// SetExtras(nil) puts the market back on the automatic engine: the result
// is the plain market's, from the exact engine again.
func TestSetExtrasNilRestoresPlainClear(t *testing.T) {
	cons := twoPDUConstraints(100, 100, 200)
	m, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	bids := []Bid{{Rack: 0, Fn: LinearBid{DMax: 40, DMin: 10, QMin: 0.05, QMax: 0.3}}}
	if err := m.SetExtras(&Extras{Zones: []Zone{{Name: "z", Racks: []int{0}, MaxWatts: 15}}}); err != nil {
		t.Fatal(err)
	}
	capped, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Algorithm != AlgorithmScan || capped.TotalWatts > 15+1e-9 {
		t.Errorf("with the zone installed: engine %v sold %v W of 15 W", capped.Algorithm, capped.TotalWatts)
	}
	if err := m.SetExtras(nil); err != nil {
		t.Fatal(err)
	}
	a, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	if a.Algorithm != AlgorithmExact || a.Price != b.Price || a.TotalWatts != b.TotalWatts {
		t.Errorf("after SetExtras(nil): %+v, plain market: %+v", a, b)
	}
}

func TestVerifyExtrasRejects(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(200, 200, 400), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetExtras(&Extras{
		Zones:     []Zone{{Name: "z", Racks: []int{0, 1}, MaxWatts: 50}},
		RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyExtras([]Allocation{{Rack: 0, Watts: 30}, {Rack: 1, Watts: 30}}); err == nil {
		t.Error("zone overflow accepted")
	}
	if err := m.VerifyExtras([]Allocation{{Rack: 0, Watts: 60}}); err == nil {
		t.Error("phase imbalance accepted")
	}
	if err := m.VerifyExtras([]Allocation{{Rack: 0, Watts: 15}, {Rack: 1, Watts: 15}, {Rack: 2, Watts: 15}}); err != nil {
		t.Errorf("balanced allocation rejected: %v", err)
	}
}

// Property: Clear under extras never violates zones or phases, and never
// earns more than the unconstrained clearing on the same bids.
func TestQuickExtrasNeverViolated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cons := twoPDUConstraints(50+rng.Float64()*150, 50+rng.Float64()*150, 100+rng.Float64()*300)
		phases := make(PhaseOf, 8)
		for i := range phases {
			phases[i] = rng.Intn(3)
		}
		extras := &Extras{
			Zones: []Zone{
				{Name: "a", Racks: []int{0, 1, 2}, MaxWatts: rng.Float64() * 120},
				{Name: "b", Racks: []int{4, 5}, MaxWatts: rng.Float64() * 120},
			},
			RackPhase:      phases,
			PhaseImbalance: 0.3 + rng.Float64(),
		}
		var bids []Bid
		for r := 0; r < 8; r++ {
			if rng.Float64() < 0.3 {
				continue
			}
			dMin := rng.Float64() * 20
			dMax := dMin + rng.Float64()*40
			qMin := rng.Float64() * 0.1
			bids = append(bids, Bid{Rack: r, Fn: LinearBid{
				DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMin + 0.05 + rng.Float64()*0.3}})
		}
		withEx, err := NewMarket(cons, Options{PriceStep: 0.005})
		if err != nil {
			return false
		}
		if err := withEx.SetExtras(extras); err != nil {
			return false
		}
		res, err := withEx.Clear(bids)
		if err != nil {
			return false
		}
		if err := withEx.VerifyExtras(res.Allocations); err != nil {
			return false
		}
		if err := withEx.VerifyFeasible(res.Allocations); err != nil {
			return false
		}
		plain, err := NewMarket(cons, Options{PriceStep: 0.005})
		if err != nil {
			return false
		}
		base, err := plain.Clear(bids)
		if err != nil {
			return false
		}
		// Extra constraints can only reduce the achievable revenue (up to
		// one grid step of slack from the differing scan origins).
		slack := 0.005*res.TotalWatts/1000 + 1e-9
		return res.RevenueRate <= base.RevenueRate+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Installed extras bind Clear itself: this 3-rack market would sell 46 W
// into its 30 W zone if the search skipped them (only an attached Auditor
// would notice). The clearing must pass VerifyExtras, report the grid
// engine, and be visible to the metrics and the clear span like any other.
func TestClearHonoursInstalledExtras(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := otrace.NewTracer(otrace.Options{SampleEvery: 1, Seed: 1})
	aud := &Auditor{}
	m, err := NewMarket(Constraints{
		RackHeadroom: []float64{60, 60, 60},
		RackPDU:      []int{0, 0, 0},
		PDUSpot:      []float64{200},
		UPSSpot:      200,
	}, Options{PriceStep: 0.001, Metrics: NewMarketMetrics(reg), Audit: aud, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetExtras(&Extras{Zones: []Zone{{Name: "aisle", Racks: []int{0, 1}, MaxWatts: 30}}}); err != nil {
		t.Fatal(err)
	}
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 1, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}},
		{Rack: 2, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.4}},
	}
	root := tr.StartRoot("slot", 0)
	m.SetTraceParent(root)
	res, err := m.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraceParent(nil)
	root.End()

	if err := m.VerifyExtras(res.Allocations); err != nil {
		t.Errorf("Clear broke the installed zone: %v", err)
	}
	if aud.Violations() != 0 {
		t.Errorf("inline audit: %v", aud.Err())
	}
	if res.TotalWatts <= 0 {
		t.Error("nothing sold although high prices fit the zone")
	}
	if res.Algorithm != AlgorithmScan {
		t.Errorf("Result.Algorithm = %v, want scan", res.Algorithm)
	}
	if n, _ := reg.Value("spotdc_market_clears_total", "scan"); n != 1 {
		t.Errorf("spotdc_market_clears_total{engine=scan} = %v, want 1", n)
	}
	var span *otrace.SpanRecord
	for _, sp := range tr.Snapshot() {
		if sp.Name == "clear" {
			span = &sp
		}
	}
	if span == nil {
		t.Fatal("no clear span recorded")
	}
	if span.Attrs["engine"] != "scan" || span.Attrs["price"] != res.Price {
		t.Errorf("clear span attrs = %v, want engine scan at price %v", span.Attrs, res.Price)
	}
}

// Extras force the grid whatever engine Options.Algorithm names.
func TestExtrasOverrideAlgorithmExact(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(200, 200, 400), Options{PriceStep: 0.001, Algorithm: AlgorithmExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetExtras(&Extras{RackPhase: PhaseOf{0, 1, 2, 0, 1, 2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 30, QMax: 0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmScan {
		t.Errorf("Result.Algorithm = %v, want scan", res.Algorithm)
	}
}

// Pins what Ration + extras does: extras clear strictly. PDU 0's inelastic
// 55–60 W demand never fits its 50 W spot, so a plain Ration market scales
// it down and sells at a price both racks accept; with a (slack) zone
// installed no price is accepted until the un-rationed demand fits — rack 0
// is priced out — and the result equals the strict market's.
func TestExtrasClearStrictlyOnRationMarket(t *testing.T) {
	cons := twoPDUConstraints(50, 50, 100)
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, DMin: 55, QMin: 0.05, QMax: 0.4}},
		{Rack: 4, Fn: LinearBid{DMax: 40, DMin: 5, QMin: 0.05, QMax: 0.6}},
	}
	extras := &Extras{Zones: []Zone{{Name: "slack", Racks: []int{0, 4}, MaxWatts: 1000}}}
	clearWith := func(opts Options, e *Extras) Result {
		t.Helper()
		m, err := NewMarket(cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetExtras(e); err != nil {
			t.Fatal(err)
		}
		res, err := m.Clear(bids)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rationed := clearWith(Options{PriceStep: 0.001, Ration: true}, nil)
	withExtras := clearWith(Options{PriceStep: 0.001, Ration: true}, extras)
	strict := clearWith(Options{PriceStep: 0.001}, extras)
	if withExtras.Price != strict.Price || withExtras.TotalWatts != strict.TotalWatts {
		t.Errorf("Ration+extras cleared (%v, %v W), strict+extras (%v, %v W)",
			withExtras.Price, withExtras.TotalWatts, strict.Price, strict.TotalWatts)
	}
	for i, a := range withExtras.Allocations {
		if want := bids[i].Fn.Demand(withExtras.Price); a.Watts != want {
			t.Errorf("rack %d granted %v W, un-rationed demand is %v W", a.Rack, a.Watts, want)
		}
	}
	if withExtras.Allocations[0].Watts != 0 || withExtras.TotalWatts <= 0 {
		t.Errorf("strict clearing should price rack 0 out and still sell: %+v", withExtras.Allocations)
	}
	if rationed.Allocations[0].Watts != 50 {
		t.Errorf("plain Ration market granted rack 0 %v W, want its PDU's 50 W: the case does not separate the two",
			rationed.Allocations[0].Watts)
	}
}

// Oracle: with extras installed, Clear returns the revenue-maximal grid
// price among those whose grants pass VerifyFeasible and VerifyExtras, the
// lower price on ties — checked against a brute-force walk of the grid that
// shares nothing with clearScan but the demand functions.
func TestQuickExtrasMatchBruteForceOracle(t *testing.T) {
	const step = 0.005
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cons := twoPDUConstraints(50+rng.Float64()*150, 50+rng.Float64()*150, 100+rng.Float64()*300)
		extras := &Extras{PhaseImbalance: 0.3 + rng.Float64()}
		if rng.Intn(4) > 0 {
			extras.Zones = []Zone{
				{Name: "a", Racks: []int{0, 1, 2}, MaxWatts: rng.Float64() * 120},
				{Name: "b", Racks: []int{2, 4, 5}, MaxWatts: rng.Float64() * 120}, // overlaps a, spans PDUs
			}
		}
		if rng.Intn(4) > 0 {
			extras.RackPhase = make(PhaseOf, 8)
			for i := range extras.RackPhase {
				extras.RackPhase[i] = rng.Intn(3)
			}
		}
		var bids []Bid
		hi := 0.0
		for r := 0; r < 8; r++ {
			if rng.Float64() < 0.3 {
				continue
			}
			b := randomBid(rng, r)
			bids = append(bids, b)
			hi = math.Max(hi, b.Fn.MaxPrice())
		}
		m, err := NewMarket(cons, Options{PriceStep: step})
		if err != nil {
			return false
		}
		if err := m.SetExtras(extras); err != nil {
			return false
		}
		res, err := m.Clear(bids)
		if err != nil {
			return false
		}
		got := Result{Price: res.Price, RevenueRate: res.RevenueRate, TotalWatts: res.TotalWatts}
		if m.VerifyFeasible(res.Allocations) != nil || m.VerifyExtras(res.Allocations) != nil {
			t.Logf("seed %d: returned allocation infeasible", seed)
			return false
		}

		bestPrice, bestRev := math.NaN(), -1.0
		for i := 0; ; i++ {
			q := float64(i) * step
			if q > hi+step/2 {
				break
			}
			allocs := make([]Allocation, len(bids))
			watts := 0.0
			for k, b := range bids {
				w := math.Min(b.Fn.Demand(q), cons.RackHeadroom[b.Rack])
				allocs[k] = Allocation{Rack: b.Rack, Watts: w}
				watts += w
			}
			if m.VerifyFeasible(allocs) != nil || m.VerifyExtras(allocs) != nil {
				continue
			}
			if rev := q * watts / 1000; rev > bestRev+revEps {
				bestPrice, bestRev = q, rev
			}
		}
		if bestRev < 0 {
			// No grid price passes: nothing may sell.
			if got.TotalWatts != 0 || got.RevenueRate != 0 {
				t.Logf("seed %d: sold %v W where no grid price is feasible", seed, got.TotalWatts)
				return false
			}
			return true
		}
		if got.Price != bestPrice || math.Abs(got.RevenueRate-bestRev) > 1e-9 {
			t.Logf("seed %d: Clear (%v, %v $/h), oracle (%v, %v $/h)", seed, got.Price, got.RevenueRate, bestPrice, bestRev)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
