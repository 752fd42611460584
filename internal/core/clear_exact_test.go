package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// bigHeadroomConstraints builds constraints whose rack headrooms never bind,
// so tests can reason about demand curves directly.
func bigHeadroomConstraints(nRacks, nPDUs int, pduSpot, upsSpot float64) Constraints {
	c := Constraints{
		RackHeadroom: make([]float64, nRacks),
		RackPDU:      make([]int, nRacks),
		PDUSpot:      make([]float64, nPDUs),
		UPSSpot:      upsSpot,
	}
	for r := 0; r < nRacks; r++ {
		c.RackHeadroom[r] = 1e6
		c.RackPDU[r] = r % nPDUs
	}
	for m := 0; m < nPDUs; m++ {
		c.PDUSpot[m] = pduSpot
	}
	return c
}

// randomBid draws one of the three piece-wise linear demand functions with
// random parameters (prices in [0, ~0.8], demands in [0, ~90] watts).
func randomBid(rng *rand.Rand, rack int) Bid {
	switch rng.Intn(3) {
	case 0:
		dMin := rng.Float64() * 30
		dMax := dMin + rng.Float64()*60
		qMin := rng.Float64() * 0.3
		qMax := qMin + rng.Float64()*0.5
		return Bid{Rack: rack, Fn: LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}}
	case 1:
		return Bid{Rack: rack, Fn: StepBid{D: rng.Float64() * 90, QMax: rng.Float64() * 0.8}}
	default:
		n := 2 + rng.Intn(4)
		pts := make([]PricePoint, n)
		price, demand := rng.Float64()*0.1, 20+rng.Float64()*70
		for i := 0; i < n; i++ {
			pts[i] = PricePoint{Price: price, Demand: demand}
			price += 0.02 + rng.Float64()*0.2
			demand -= rng.Float64() * demand
		}
		fb, err := NewFullBid(pts)
		if err != nil {
			panic(err)
		}
		return Bid{Rack: rack, Fn: fb}
	}
}

// Property (the ISSUE's cross-validation suite): on randomized markets
// mixing LinearBid/StepBid/FullBid, with ration on and off and with random
// reserve prices, exact clearing earns at least the scan oracle's revenue
// (same step, same bids), both allocations verify feasible, and the results
// are internally consistent.
func TestQuickExactMatchesOrBeatsScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRacks := 2 + rng.Intn(10)
		nPDUs := 1 + rng.Intn(3)
		cons := Constraints{
			RackHeadroom: make([]float64, nRacks),
			RackPDU:      make([]int, nRacks),
			PDUSpot:      make([]float64, nPDUs),
		}
		for r := 0; r < nRacks; r++ {
			cons.RackHeadroom[r] = 10 + rng.Float64()*80
			cons.RackPDU[r] = rng.Intn(nPDUs)
		}
		for m := 0; m < nPDUs; m++ {
			cons.PDUSpot[m] = rng.Float64() * 200
		}
		cons.UPSSpot = rng.Float64() * 200 * float64(nPDUs)
		opts := Options{PriceStep: 0.002, Ration: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			opts.ReservePrice = rng.Float64() * 0.3
		}
		var bids []Bid
		for r := 0; r < nRacks; r++ {
			if rng.Float64() < 0.2 {
				continue
			}
			bids = append(bids, randomBid(rng, r))
		}

		exOpts, scOpts := opts, opts
		exOpts.Algorithm = AlgorithmExact
		scOpts.Algorithm = AlgorithmScan
		exM, err := NewMarket(cons, exOpts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		scM, err := NewMarket(cons, scOpts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ex, err := exM.Clear(bids)
		if err != nil {
			t.Logf("seed %d: exact: %v", seed, err)
			return false
		}
		sc, err := scM.Clear(bids)
		if err != nil {
			t.Logf("seed %d: scan: %v", seed, err)
			return false
		}
		if len(bids) > 0 {
			if ex.Algorithm != AlgorithmExact || sc.Algorithm != AlgorithmScan {
				t.Logf("seed %d: algorithms %v/%v", seed, ex.Algorithm, sc.Algorithm)
				return false
			}
		}
		// Exact must match or beat the grid oracle.
		if ex.RevenueRate < sc.RevenueRate-1e-9 {
			t.Logf("seed %d: exact revenue %.12f < scan %.12f (ration=%v reserve=%v, exact price %v, scan price %v)",
				seed, ex.RevenueRate, sc.RevenueRate, opts.Ration, opts.ReservePrice, ex.Price, sc.Price)
			return false
		}
		// Both allocations must satisfy Eqns. (2)-(4).
		if err := exM.VerifyFeasible(ex.Allocations); err != nil {
			t.Logf("seed %d: exact infeasible: %v", seed, err)
			return false
		}
		if err := scM.VerifyFeasible(sc.Allocations); err != nil {
			t.Logf("seed %d: scan infeasible: %v", seed, err)
			return false
		}
		// Internal consistency: allocations sum to the reported total and
		// the revenue is price x total.
		for _, res := range []Result{ex, sc} {
			sum := 0.0
			for _, a := range res.Allocations {
				if a.Watts < -1e-9 {
					t.Logf("seed %d: negative allocation %v", seed, a.Watts)
					return false
				}
				sum += a.Watts
			}
			if math.Abs(sum-res.TotalWatts) > 1e-6 {
				t.Logf("seed %d: allocations sum %v != total %v", seed, sum, res.TotalWatts)
				return false
			}
			if math.Abs(res.RevenueRate-res.Price*res.TotalWatts/1000) > 1e-9 {
				t.Logf("seed %d: revenue %v != price*watts %v", seed, res.RevenueRate, res.Price*res.TotalWatts/1000)
				return false
			}
			if res.Price < opts.ReservePrice {
				t.Logf("seed %d: price %v below reserve %v", seed, res.Price, opts.ReservePrice)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// The exact engine finds the true quadratic vertex even when the scan grid
// steps over it: a single elastic bid D(q) = 100(1-q) has revenue
// q·100(1-q)/1000, maximized at exactly q = 0.5 (rev 0.025 $/h), which a
// 0.3-step grid cannot hit.
func TestExactFindsOffGridVertex(t *testing.T) {
	cons := bigHeadroomConstraints(1, 1, 1000, 1000)
	bid := Bid{Rack: 0, Fn: LinearBid{DMax: 100, DMin: 0, QMin: 0, QMax: 1}}

	ex, err := NewMarket(cons, Options{PriceStep: 0.3, Algorithm: AlgorithmExact})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Clear([]Bid{bid})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-0.5) > 1e-12 {
		t.Errorf("exact price = %v, want 0.5", res.Price)
	}
	if math.Abs(res.RevenueRate-0.025) > 1e-12 {
		t.Errorf("exact revenue = %v, want 0.025", res.RevenueRate)
	}

	sc, err := NewMarket(cons, Options{PriceStep: 0.3, Algorithm: AlgorithmScan})
	if err != nil {
		t.Fatal(err)
	}
	scRes, err := sc.Clear([]Bid{bid})
	if err != nil {
		t.Fatal(err)
	}
	if scRes.RevenueRate >= res.RevenueRate {
		t.Errorf("coarse scan revenue %v should be below exact %v", scRes.RevenueRate, res.RevenueRate)
	}
}

// Regression (ISSUE satellite 1): SetSpot must validate every value before
// mutating any constraint, so a rejected update leaves the market exactly as
// it was.
func TestSetSpotNoPartialMutation(t *testing.T) {
	m, err := NewMarket(twoPDUConstraints(100, 120, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Constraints()

	// First element valid, second negative: must reject without applying
	// the first.
	if err := m.SetSpot([]float64{55, -1}, 180); err == nil {
		t.Fatal("negative PDU spot accepted")
	}
	after := m.Constraints()
	if after.PDUSpot[0] != before.PDUSpot[0] || after.PDUSpot[1] != before.PDUSpot[1] || after.UPSSpot != before.UPSSpot {
		t.Errorf("constraints mutated by rejected SetSpot: before %v/%v, after %v/%v",
			before.PDUSpot, before.UPSSpot, after.PDUSpot, after.UPSSpot)
	}

	// Valid PDU spots but negative UPS: same guarantee.
	if err := m.SetSpot([]float64{55, 66}, -5); err == nil {
		t.Fatal("negative UPS spot accepted")
	}
	after = m.Constraints()
	if after.PDUSpot[0] != before.PDUSpot[0] || after.PDUSpot[1] != before.PDUSpot[1] || after.UPSSpot != before.UPSSpot {
		t.Errorf("constraints mutated by rejected SetSpot: before %v/%v, after %v/%v",
			before.PDUSpot, before.UPSSpot, after.PDUSpot, after.UPSSpot)
	}

	// And a valid update still applies fully.
	if err := m.SetSpot([]float64{55, 66}, 110); err != nil {
		t.Fatal(err)
	}
	after = m.Constraints()
	if after.PDUSpot[0] != 55 || after.PDUSpot[1] != 66 || after.UPSSpot != 110 {
		t.Errorf("valid SetSpot not applied: %v/%v", after.PDUSpot, after.UPSSpot)
	}
}

// Regression (ISSUE satellite 2): every scan clearing price sits exactly on
// the integer-indexed grid floor + i·step — including when the price comes
// out of the binary-searched feasibility boundary — so reported prices match
// the advertised resolution bit-for-bit.
func TestScanPricesExactlyOnGrid(t *testing.T) {
	onGrid := func(t *testing.T, price, floor, step float64) {
		t.Helper()
		i := math.Round((price - floor) / step)
		if price != floor+i*step {
			t.Errorf("price %v is off the grid floor %v + i*%v (nearest i=%v gives %v)",
				price, floor, step, i, floor+i*step)
		}
	}

	// Unconstrained: the argmax lands deep into the scan (hundreds of
	// drift-prone iterations in the old q += step loop).
	m, err := NewMarket(bigHeadroomConstraints(2, 1, 1e6, 1e6),
		Options{PriceStep: 0.001, Algorithm: AlgorithmScan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{
		{Rack: 0, Fn: LinearBid{DMax: 100, DMin: 0, QMin: 0, QMax: 0.7}},
		{Rack: 1, Fn: StepBid{D: 40, QMax: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	onGrid(t, res.Price, 0, 0.001)

	// Constrained: the clearing price is found by the bisection + snap path.
	tight, err := NewMarket(twoPDUConstraints(30, 500, 1000),
		Options{PriceStep: 0.001, Algorithm: AlgorithmScan})
	if err != nil {
		t.Fatal(err)
	}
	res, err = tight.Clear([]Bid{
		{Rack: 0, Fn: LinearBid{DMax: 50, DMin: 5, QMin: 0.05, QMax: 0.61}},
		{Rack: 1, Fn: LinearBid{DMax: 50, DMin: 5, QMin: 0.05, QMax: 0.61}},
	})
	if err != nil {
		t.Fatal(err)
	}
	onGrid(t, res.Price, 0, 0.001)
	if err := tight.VerifyFeasible(res.Allocations); err != nil {
		t.Fatal(err)
	}

	// With a reserve price the grid origin shifts to the floor.
	rp, err := NewMarket(bigHeadroomConstraints(1, 1, 1e6, 1e6),
		Options{PriceStep: 0.003, ReservePrice: 0.1, Algorithm: AlgorithmScan})
	if err != nil {
		t.Fatal(err)
	}
	res, err = rp.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 40, QMax: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	onGrid(t, res.Price, 0.1, 0.003)
}

// Regression (ISSUE satellite 3): when two prices earn the same revenue
// (within revEps) both engines deterministically pick the lower one. Two
// step bids — 100 W up to 0.5 and 100 W up to 1.0 — earn exactly 0.1 $/h at
// both q=0.5 (200 W) and q=1.0 (100 W).
func TestRevenueTieBreaksTowardLowerPrice(t *testing.T) {
	cons := bigHeadroomConstraints(2, 1, 1000, 1000)
	bids := []Bid{
		{Rack: 0, Fn: StepBid{D: 100, QMax: 0.5}},
		{Rack: 1, Fn: StepBid{D: 100, QMax: 1.0}},
	}
	for _, algo := range []Algorithm{AlgorithmScan, AlgorithmExact} {
		m, err := NewMarket(cons, Options{PriceStep: 0.25, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Clear(bids)
		if err != nil {
			t.Fatal(err)
		}
		if res.Price != 0.5 {
			t.Errorf("%v: tie broke to price %v, want 0.5", algo, res.Price)
		}
		if math.Abs(res.RevenueRate-0.1) > 1e-12 {
			t.Errorf("%v: revenue %v, want 0.1", algo, res.RevenueRate)
		}
	}
}

// opaqueBid hides its breakpoint structure, forcing the scan fallback.
type opaqueBid struct{ inner StepBid }

func (o opaqueBid) Demand(price float64) float64 { return o.inner.Demand(price) }
func (o opaqueBid) MaxDemand() float64           { return o.inner.MaxDemand() }
func (o opaqueBid) MaxPrice() float64            { return o.inner.MaxPrice() }

func TestAutoSelectsExactAndFallsBackToScan(t *testing.T) {
	cons := bigHeadroomConstraints(2, 1, 1000, 1000)
	m, err := NewMarket(cons, Options{PriceStep: 0.01}) // AlgorithmAuto
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Clear([]Bid{{Rack: 0, Fn: StepBid{D: 40, QMax: 0.4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmExact {
		t.Errorf("auto with structured bids used %v, want exact", res.Algorithm)
	}

	// A bid without Breakpoints forces the grid scan, even when exact is
	// requested explicitly.
	for _, algo := range []Algorithm{AlgorithmAuto, AlgorithmExact} {
		m, err := NewMarket(cons, Options{PriceStep: 0.01, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Clear([]Bid{{Rack: 0, Fn: opaqueBid{inner: StepBid{D: 40, QMax: 0.4}}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != AlgorithmScan {
			t.Errorf("%v with opaque bid used %v, want scan fallback", algo, res.Algorithm)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"", AlgorithmAuto, true},
		{"auto", AlgorithmAuto, true},
		{"scan", AlgorithmScan, true},
		{"exact", AlgorithmExact, true},
		{"grid", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", c.in)
		}
	}
	for _, a := range []Algorithm{AlgorithmAuto, AlgorithmScan, AlgorithmExact} {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("round trip %v -> %q -> %v, %v", a, a.String(), back, err)
		}
	}
}

// The exact engine returns identical results whatever GOMAXPROCS (from which
// verifyCandidates derives its worker count) is — the parallel candidate
// verification is deterministic.
func TestExactDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(7))
	cons := twoPDUConstraints(80, 90, 150)
	var bids []Bid
	for r := 0; r < 8; r++ {
		bids = append(bids, randomBid(rng, r))
	}
	var ref Result
	for i, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		m, err := NewMarket(cons, Options{PriceStep: 0.001, Algorithm: AlgorithmExact})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Clear(bids)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Price != ref.Price || res.RevenueRate != ref.RevenueRate || res.TotalWatts != ref.TotalWatts {
			t.Errorf("GOMAXPROCS=%d: result (%v, %v, %v) != GOMAXPROCS=1 (%v, %v, %v)",
				workers, res.Price, res.RevenueRate, res.TotalWatts, ref.Price, ref.RevenueRate, ref.TotalWatts)
		}
	}
}
