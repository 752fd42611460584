package experiments

import (
	"fmt"

	"spotdc/internal/core"
	"spotdc/internal/par"
	"spotdc/internal/sim"
)

func init() {
	register("abl-pricing", "Ablation: uniform clearing price vs per-PDU prices", ablPricing)
	register("abl-granularity", "Ablation: rack-level vs tenant-level spot allocation (Section III-A)", ablGranularity)
	register("abl-ration", "Ablation: strict feasibility pricing vs best-effort rationing at scale", ablRation)
	register("abl-step", "Ablation: clearing-price step size vs profit and search cost", ablStep)
	register("abl-reserve", "Ablation: reserve (floor) price vs revenue and volume", ablReserve)
}

// ablPricing compares the paper's single uniform clearing price against
// clearing each PDU at its own price, on synthetic markets of growing
// size. Per-PDU pricing can extract more revenue from heterogeneous PDUs
// but requires per-PDU coordination; the paper chooses uniform pricing for
// simplicity and fairness.
func ablPricing(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-pricing",
		Title:  "Uniform vs per-PDU clearing prices (revenue $/h, same bids)",
		Header: []string{"racks", "uniform $/h", "per-PDU $/h", "per-PDU gain"},
	}
	for _, racks := range []int{100, 500, 2000} {
		cons, bids := syntheticMarket(opt.Seed, racks)
		mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.002})
		if err != nil {
			return nil, err
		}
		uni, err := mkt.Clear(bids)
		if err != nil {
			return nil, err
		}
		per, err := mkt.ClearPerPDU(bids)
		if err != nil {
			return nil, err
		}
		perRev := 0.0
		for _, p := range per {
			perRev += p.RevenueRate
		}
		gain := 0.0
		if uni.RevenueRate > 0 {
			gain = perRev/uni.RevenueRate - 1
		}
		r.AddRow(fmt.Sprint(racks), F(uni.RevenueRate), F(perRev), Pct(gain))
	}
	r.Notes = append(r.Notes,
		"per-PDU pricing exploits PDU heterogeneity; SpotDC accepts the gap for a single simple market")
	return r, nil
}

// ablGranularity quantifies Section III-A's argument for rack-level
// allocation: with tenant-level grants the operator cannot control where a
// tenant concentrates its received power, so a tenant can overload one
// PDU. We model the worst case: each multi-rack tenant funnels its whole
// tenant-level grant into its single most-loaded PDU.
func ablGranularity(opt Options) (*Report, error) {
	// Two PDUs with 60 W spot each; one tenant owning one rack on each PDU
	// is granted 100 W at tenant level and concentrates it on PDU 0.
	cons := core.Constraints{
		RackHeadroom: []float64{80, 80},
		RackPDU:      []int{0, 1},
		PDUSpot:      []float64{60, 60},
		UPSSpot:      120,
	}
	mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.001})
	if err != nil {
		return nil, err
	}
	bids := []core.Bid{
		{Rack: 0, Tenant: "t", Fn: core.LinearBid{DMax: 60, DMin: 10, QMin: 0.02, QMax: 0.2}},
		{Rack: 1, Tenant: "t", Fn: core.LinearBid{DMax: 60, DMin: 10, QMin: 0.02, QMax: 0.2}},
	}
	res, err := mkt.Clear(bids)
	if err != nil {
		return nil, err
	}
	rackLevelWorst := 0.0
	for _, a := range res.Allocations {
		if a.Watts > rackLevelWorst {
			rackLevelWorst = a.Watts
		}
	}
	tenantTotal := res.TotalWatts // a tenant-level grant of the same size
	r := &Report{
		ID:     "abl-granularity",
		Title:  "Worst-case PDU overload under tenant-level allocation",
		Header: []string{"allocation", "worst single-PDU spot draw", "PDU spot", "overload"},
	}
	r.AddRow("rack-level (SpotDC)", F(rackLevelWorst), "60", Pct(rackLevelWorst/60-1))
	r.AddRow("tenant-level, concentrated", F(tenantTotal), "60", Pct(tenantTotal/60-1))
	r.Notes = append(r.Notes,
		"rack-level grants are individually capped by Eqns. (2)-(3); a tenant-level grant concentrated on one PDU exceeds its spot capacity — the Section III-A overload argument")
	return r, nil
}

// ablRation shows why the operator clears with best-effort rationing at
// scale: strict feasibility pricing lets the single most congested PDU
// floor the uniform price for the entire data center.
func ablRation(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-ration",
		Title:  "Strict feasibility pricing vs best-effort rationing (extra profit)",
		Header: []string{"tenants", "strict", "rationed"},
	}
	// The (tenant count × ration) grid is independent scenarios; fan out
	// all cells and assemble rows by index.
	counts := opt.ScaleTenants
	cells := make([]string, 2*len(counts)) // [2i] strict, [2i+1] rationed
	err := par.ForErr(opt.Workers, len(cells), func(k int) error {
		n := counts[k/2]
		tb := sim.TestbedOptions{Seed: opt.Seed, Slots: opt.ScaleSlots}
		sc, e := sim.Scaled(sim.ScaledOptions{Testbed: tb, Tenants: n, JitterFrac: 0.2})
		if e != nil {
			return e
		}
		sc.MarketOptions.Ration = k%2 == 1
		res, e := sim.Run(sc, sim.RunOptions{Mode: sim.ModeSpotDC, Registry: opt.Registry, Audit: opt.Audit, Tracer: opt.Tracer})
		if e != nil {
			return e
		}
		otherLeased := 500.0 * float64((n+7)/8)
		cells[k] = Pct(res.Profit(otherLeased).ExtraProfitFraction)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		r.Rows = append(r.Rows, []string{fmt.Sprint(n), cells[2*i], cells[2*i+1]})
	}
	r.Notes = append(r.Notes,
		"under strict pricing the most congested of ~2N/8 PDUs sets a global price floor; rationing keeps the market liquid (DESIGN.md)")
	return r, nil
}

// ablStep sweeps the clearing-price step size: coarser steps clear faster
// (Fig. 7(b)) but can miss the revenue peak.
func ablStep(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-step",
		Title:  "Clearing-price step size vs revenue found and price evaluations",
		Header: []string{"step $/kWh", "revenue $/h", "revenue vs finest", "price evals"},
	}
	cons, bids := syntheticMarket(opt.Seed, 2000)
	// The step-size trade-off belongs to the paper's grid scan, so the
	// sweep pins AlgorithmScan; the default AlgorithmAuto resolves to the
	// exact breakpoint engine, whose work is step-independent (last row).
	finest := -1.0
	for _, step := range []float64{0.0005, 0.001, 0.005, 0.01, 0.05} {
		mkt, err := core.NewMarket(cons, core.Options{PriceStep: step, Algorithm: core.AlgorithmScan})
		if err != nil {
			return nil, err
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			return nil, err
		}
		if finest < 0 {
			finest = res.RevenueRate
		}
		rel := 0.0
		if finest > 0 {
			rel = res.RevenueRate / finest
		}
		r.AddRow(F(step)+" (scan)", F(res.RevenueRate), F(rel), fmt.Sprint(res.Evaluations))
	}
	mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.001})
	if err != nil {
		return nil, err
	}
	res, err := mkt.Clear(bids)
	if err != nil {
		return nil, err
	}
	rel := 0.0
	if finest > 0 {
		rel = res.RevenueRate / finest
	}
	r.AddRow("any (exact)", F(res.RevenueRate), F(rel), fmt.Sprint(res.Evaluations))
	r.Notes = append(r.Notes,
		"even a 1 cent/kW step loses almost no revenue — the paper's fast scan is safe",
		"the exact engine's evaluation count is step-independent (candidate verification only)")
	return r, nil
}

// ablReserve sweeps the operator's reserve (floor) price: the knob the
// paper mentions for recouping metered-energy costs. A floor above the
// revenue-optimal price sacrifices volume for nothing.
func ablReserve(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-reserve",
		Title:  "Reserve (floor) price vs revenue and volume",
		Header: []string{"reserve $/kWh", "revenue $/h", "sold W", "price $/kWh"},
	}
	cons, bids := syntheticMarket(opt.Seed, 1000)
	for _, reserve := range []float64{0, 0.02, 0.05, 0.10, 0.20, 0.40} {
		mkt, err := core.NewMarket(cons, core.Options{PriceStep: 0.002, ReservePrice: reserve, Ration: true})
		if err != nil {
			return nil, err
		}
		res, err := mkt.Clear(bids)
		if err != nil {
			return nil, err
		}
		r.AddRow(F(reserve), F(res.RevenueRate), F(res.TotalWatts), F(res.Price))
	}
	r.Notes = append(r.Notes,
		"floors below the revenue-optimal price are free; above it they trade volume for price and revenue falls")
	return r, nil
}
