package core

import (
	"math"
	"math/rand"
	"testing"
)

// randCase draws a random hierarchical topology and bid set. Headrooms,
// PDU spot, and UPS spot are drawn independently so every binding pattern
// occurs: rack-limited, PDU-limited, UPS-limited, and slack. Bids may
// demand far beyond their rack's headroom — the clamp is the market's
// problem, not the generator's.
func randCase(rng *rand.Rand) (Constraints, []Bid) {
	nPDU := 1 + rng.Intn(4)
	nRack := 1 + rng.Intn(12)
	cons := Constraints{
		RackHeadroom: make([]float64, nRack),
		RackPDU:      make([]int, nRack),
		PDUSpot:      make([]float64, nPDU),
		UPSSpot:      rng.Float64() * 400,
	}
	for r := 0; r < nRack; r++ {
		cons.RackHeadroom[r] = rng.Float64() * 100
		cons.RackPDU[r] = rng.Intn(nPDU)
	}
	for m := 0; m < nPDU; m++ {
		cons.PDUSpot[m] = rng.Float64() * 250
	}
	var bids []Bid
	for r := 0; r < nRack; r++ {
		if rng.Float64() < 0.2 { // some racks sit a slot out
			continue
		}
		dMin := rng.Float64() * 50
		qMin := rng.Float64() * 0.5
		bids = append(bids, Bid{Rack: r, Tenant: "t", Fn: LinearBid{
			DMax: dMin + rng.Float64()*120,
			DMin: dMin,
			QMin: qMin,
			QMax: qMin + rng.Float64()*0.6,
		}})
	}
	return cons, bids
}

// checkHierarchy re-derives Eqns. (2)-(4) from scratch — independent of
// VerifyFeasible, whose accumulation logic is itself under test elsewhere.
func checkHierarchy(t *testing.T, cons Constraints, res Result) {
	t.Helper()
	pduLoad := make([]float64, len(cons.PDUSpot))
	total := 0.0
	for _, a := range res.Allocations {
		if a.Watts < 0 {
			t.Fatalf("rack %d granted negative power %v W", a.Rack, a.Watts)
		}
		if a.Watts > cons.RackHeadroom[a.Rack]+1e-9 {
			t.Fatalf("rack %d granted %v W beyond headroom %v W (Eqn. 2)",
				a.Rack, a.Watts, cons.RackHeadroom[a.Rack])
		}
		pduLoad[cons.RackPDU[a.Rack]] += a.Watts
		total += a.Watts
	}
	for m, l := range pduLoad {
		if l > cons.PDUSpot[m]+1e-9 {
			t.Fatalf("PDU %d granted %v W beyond spot %v W (Eqn. 3)", m, l, cons.PDUSpot[m])
		}
	}
	if total > cons.UPSSpot+1e-9 {
		t.Fatalf("UPS granted %v W beyond spot %v W (Eqn. 4)", total, cons.UPSSpot)
	}
	if math.Abs(total-res.TotalWatts) > 1e-9+1e-12*total {
		t.Fatalf("grants sum to %v W, TotalWatts says %v W", total, res.TotalWatts)
	}
}

// TestClearFeasibilityProperty hammers both engines with random
// topologies and asserts the hierarchical feasibility invariants, engine
// agreement on revenue, and a silent inline auditor on every clearing.
func TestClearFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20180224)) // HPCA'18
	for trial := 0; trial < 400; trial++ {
		cons, bids := randCase(rng)
		ration := rng.Float64() < 0.25
		results := make(map[Algorithm]Result)
		for _, algo := range []Algorithm{AlgorithmScan, AlgorithmExact} {
			aud := &Auditor{}
			mkt, err := NewMarket(cons, Options{PriceStep: 0.001, Algorithm: algo, Ration: ration, Audit: aud})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			res, err := mkt.Clear(bids)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			checkHierarchy(t, cons, res)
			if err := mkt.VerifyFeasible(res.Allocations); err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			if aud.Violations() != 0 {
				t.Fatalf("trial %d %v: inline audit: %v", trial, algo, aud.Err())
			}
			results[algo] = res
		}
		// The exact engine optimizes over all breakpoints, the scan over a
		// grid: exact must never earn less (up to float slack), and the
		// scan can trail only by what a one-grid-step price miss costs —
		// generously bounded here at 10%, since these random curves are
		// tiny and steep compared to the paper's workloads.
		scan, exact := results[AlgorithmScan], results[AlgorithmExact]
		if exact.RevenueRate < scan.RevenueRate-1e-9 {
			t.Fatalf("trial %d: exact revenue %v < scan revenue %v", trial, exact.RevenueRate, scan.RevenueRate)
		}
		if d := exact.RevenueRate - scan.RevenueRate; d > 1e-9+0.10*math.Abs(exact.RevenueRate) {
			t.Fatalf("trial %d: engines disagree on revenue: scan %v, exact %v", trial, scan.RevenueRate, exact.RevenueRate)
		}
	}
}

// FuzzClearFeasibility lets the fuzzer steer the topology draw and the
// binding constraint levels directly. `go test -fuzz=FuzzClearFeasibility
// ./internal/core/` explores; the seed corpus keeps it as a fast
// regression property under plain `go test`.
func FuzzClearFeasibility(f *testing.F) {
	f.Add(int64(1), 100.0, 50.0)
	f.Add(int64(42), 0.0, 0.0)
	f.Add(int64(7), 1e6, 1e-3)
	f.Add(int64(-3), 0.5, 400.0)
	f.Fuzz(func(t *testing.T, seed int64, upsSpot, pduSpot float64) {
		if math.IsNaN(upsSpot) || math.IsInf(upsSpot, 0) || upsSpot < 0 || upsSpot > 1e12 {
			t.Skip()
		}
		if math.IsNaN(pduSpot) || math.IsInf(pduSpot, 0) || pduSpot < 0 || pduSpot > 1e12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		cons, bids := randCase(rng)
		cons.UPSSpot = upsSpot
		for m := range cons.PDUSpot {
			cons.PDUSpot[m] = pduSpot
		}
		for _, algo := range []Algorithm{AlgorithmScan, AlgorithmExact} {
			aud := &Auditor{}
			mkt, err := NewMarket(cons, Options{PriceStep: 0.001, Algorithm: algo, Audit: aud})
			if err != nil {
				t.Fatal(err)
			}
			res, err := mkt.Clear(bids)
			if err != nil {
				t.Fatal(err)
			}
			checkHierarchy(t, cons, res)
			if err := mkt.VerifyFeasible(res.Allocations); err != nil {
				t.Fatal(err)
			}
			if aud.Violations() != 0 {
				t.Fatal(aud.Err())
			}
		}
	})
}

// TestValidateBidsRejectsDuplicateRack: one demand function per rack per
// slot (b_r in Eqn. 5). Two bids on the same rack would each get the full
// rack headroom clamp and jointly breach Eqn. 2.
func TestValidateBidsRejectsDuplicateRack(t *testing.T) {
	cons := Constraints{
		RackHeadroom: []float64{60, 60},
		RackPDU:      []int{0, 0},
		PDUSpot:      []float64{100},
		UPSSpot:      100,
	}
	mkt, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	dup := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 60, QMax: 0.1}},
		{Rack: 1, Fn: LinearBid{DMax: 60, QMax: 0.1}},
		{Rack: 0, Fn: LinearBid{DMax: 60, QMax: 0.1}},
	}
	if _, err := mkt.Clear(dup); err == nil {
		t.Fatal("duplicate-rack bid set cleared")
	}
	if _, err := mkt.ClearPerPDU(dup); err == nil {
		t.Fatal("duplicate-rack bid set cleared per PDU")
	}
	// The epoch-marked buffer must not leak marks across calls: the same
	// racks, deduplicated, clear fine immediately afterwards.
	if _, err := mkt.Clear(dup[:2]); err != nil {
		t.Fatalf("clean bid set rejected after duplicate rejection: %v", err)
	}
}

// TestVerifyFeasibleAccumulatesPerRack: multiple allocations for one rack
// (legal for callers outside Clear, e.g. MaxPerf composition) must be
// summed before the headroom comparison — the bug let each slip under the
// limit individually.
func TestVerifyFeasibleAccumulatesPerRack(t *testing.T) {
	cons := Constraints{
		RackHeadroom: []float64{60},
		RackPDU:      []int{0},
		PDUSpot:      []float64{1000},
		UPSSpot:      1000,
	}
	mkt, err := NewMarket(cons, Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// 40 + 40 = 80 W on a 60 W rack: individually fine, jointly infeasible.
	err = mkt.VerifyFeasible([]Allocation{
		{Rack: 0, Watts: 40},
		{Rack: 0, Watts: 40},
	})
	if err == nil {
		t.Fatal("per-rack over-allocation passed VerifyFeasible")
	}
	if err := mkt.VerifyFeasible([]Allocation{{Rack: 0, Watts: 30}, {Rack: 0, Watts: 30}}); err != nil {
		t.Fatalf("joint allocation within headroom rejected: %v", err)
	}
}

// TestAuditorFlagsDoctoredResult exercises the inline checker directly
// with corrupted clearing results — each doctored field must produce a
// violation, proving auditClear checks what it claims to.
func TestAuditorFlagsDoctoredResult(t *testing.T) {
	cons := Constraints{
		RackHeadroom: []float64{60, 60},
		RackPDU:      []int{0, 1},
		PDUSpot:      []float64{50, 50},
		UPSSpot:      80,
	}
	bids := []Bid{
		{Rack: 0, Tenant: "a", Fn: LinearBid{DMax: 60, DMin: 10, QMin: 0.01, QMax: 0.2}},
		{Rack: 1, Tenant: "b", Fn: LinearBid{DMax: 60, DMin: 10, QMin: 0.01, QMax: 0.2}},
	}
	doctor := []struct {
		name string
		mut  func(*Result)
	}{
		{"negative grant", func(r *Result) { r.Allocations[0].Watts = -5 }},
		{"beyond headroom", func(r *Result) { r.Allocations[0].Watts = 70 }},
		{"beyond PDU spot", func(r *Result) { r.Allocations[0].Watts = 55 }},
		{"wrong rack", func(r *Result) { r.Allocations[0].Rack = 1 }},
		{"total mismatch", func(r *Result) { r.TotalWatts += 3 }},
		{"revenue mismatch", func(r *Result) { r.RevenueRate += 0.5 }},
		{"price above bid max", func(r *Result) { r.Price = 0.9 }},
	}
	for _, tc := range doctor {
		aud := &Auditor{}
		mkt, err := NewMarket(cons, Options{PriceStep: 0.001, Audit: aud})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			t.Fatal(err)
		}
		if aud.Violations() != 0 {
			t.Fatalf("%s: clean clearing flagged: %v", tc.name, aud.Err())
		}
		tc.mut(&res)
		mkt.auditClear(aud, bids, res)
		if aud.Violations() == 0 {
			t.Errorf("%s: doctored result passed the inline audit", tc.name)
		}
	}
}
