package experiments

import (
	"fmt"
	"math"
	"sort"

	"spotdc/internal/par"
	"spotdc/internal/sim"
	"spotdc/internal/stats"
	"spotdc/internal/tenant"
	"spotdc/internal/workload"
)

func init() {
	register("fig10", "20-minute trace of spot capacity allocation and market price", fig10)
	register("fig11", "Tenant performance over the 20-minute trace", fig11)
	register("fig12", "Tenant cost, performance and spot usage vs PowerCapped / MaxPerf", fig12)
	register("fig13", "CDFs of market price and UPS power utilization", fig13)
	register("fig14", "Operator profit under StepBid / LinearBid / FullBid vs spot availability", fig14)
	register("fig15", "Impact of spot capacity availability on profit and performance", fig15)
	register("fig16", "Impact of strategic (price-predicting) bidding", fig16)
	register("fig17", "Impact of spot capacity under-prediction", fig17)
	register("fig18", "Scaling to up to 1,000 tenants", fig18)
	register("headline", "Section V headline numbers (paper vs measured)", headline)
}

// demoTrace mirrors the paper's 20-minute demonstration setup: a
// deliberately volatile background trace and a high-traffic period for the
// sprinting tenants, so that all the Fig. 10 dynamics appear within ten
// slots.
func demoTrace(opt Options) sim.TestbedOptions {
	return sim.TestbedOptions{
		Seed: opt.Seed, Slots: 10,
		OtherVolatility:     0.08,
		SprintBurstFraction: 0.5,
		SprintPhase:         math.Pi, // start at the daily traffic peak
	}
}

// runTestbed runs the Table I scenario in the given mode with the suite's
// instrumentation, audit and tracing options.
func runTestbed(opt Options, tb sim.TestbedOptions, mode sim.Mode, record bool) (*sim.Result, error) {
	sc, err := sim.Testbed(tb)
	if err != nil {
		return nil, err
	}
	return sim.Run(sc, sim.RunOptions{Mode: mode, Record: record, Registry: opt.Registry, Audit: opt.Audit, Tracer: opt.Tracer})
}

func fig10(opt Options) (*Report, error) {
	tb := demoTrace(opt)
	res, err := runTestbed(opt, tb, sim.ModeSpotDC, true)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig10",
		Title:  "Spot capacity (UPS level) and market price per 2-minute slot",
		Header: []string{"slot", "t (s)", "available W", "allocated W", "price $/kWh"},
	}
	for s := 0; s < res.Slots; s++ {
		r.AddRow(fmt.Sprint(s), fmt.Sprint(s*res.SlotSeconds),
			F(res.SpotAvailable[s]), F(res.SpotSold[s]), F(res.PriceSeries[s]))
	}
	sold := stats.Sum(res.SpotSold)
	avail := stats.Sum(res.SpotAvailable)
	if avail > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"allocation stays below availability (%s used) due to multi-level constraints and profit-maximizing pricing",
			Pct(sold/avail)))
	}
	return r, nil
}

func fig11(opt Options) (*Report, error) {
	tb := demoTrace(opt)
	spot, capped, err := twoModes(opt, tb, sim.ModeSpotDC, sim.ModePowerCapped, true)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig11",
		Title:  "Per-slot tenant performance (perf score: 1000/latency or units/s)",
		Header: []string{"slot", "Search-1", "Search-1 capped", "Web", "Count-1", "Graph-1"},
	}
	for s := 0; s < spot.Slots; s++ {
		r.AddRow(fmt.Sprint(s),
			F(spot.TenantTraces["Search-1"][s]),
			F(capped.TenantTraces["Search-1"][s]),
			F(spot.TenantTraces["Web"][s]),
			F(spot.TenantTraces["Count-1"][s]),
			F(spot.TenantTraces["Graph-1"][s]))
	}
	sv, cv := 0, 0
	for _, n := range []string{"Search-1", "Web", "Search-2"} {
		sv += spot.Tenants[n].SLOViolations
		cv += capped.Tenants[n].SLOViolations
	}
	r.Notes = append(r.Notes, fmt.Sprintf("SLO violations over the trace: %d with SpotDC vs %d PowerCapped", sv, cv))
	return r, nil
}

// twoModes runs the same testbed under two modes as independent scenarios
// on the fan-out pool.
func twoModes(opt Options, tb sim.TestbedOptions, a, b sim.Mode, record bool) (*sim.Result, *sim.Result, error) {
	modes := [2]sim.Mode{a, b}
	var out [2]*sim.Result
	err := par.ForErr(opt.Workers, 2, func(i int) error {
		res, e := runTestbed(opt, tb, modes[i], record)
		out[i] = res
		return e
	})
	if err != nil {
		return nil, nil, err
	}
	return out[0], out[1], nil
}

// longRun runs the extended evaluation in all three modes over the same
// scenario seed. The three runs are independent simulations and execute
// concurrently on the Options.Workers pool; results are returned by mode,
// never by completion order.
func longRun(opt Options, tb sim.TestbedOptions) (capped, spot, maxperf *sim.Result, err error) {
	if tb.Slots == 0 {
		tb.Slots = opt.LongSlots
	}
	if tb.Seed == 0 {
		tb.Seed = opt.Seed
	}
	modes := [3]sim.Mode{sim.ModePowerCapped, sim.ModeSpotDC, sim.ModeMaxPerf}
	var out [3]*sim.Result
	err = par.ForErr(opt.Workers, len(modes), func(i int) error {
		res, e := runTestbed(opt, tb, modes[i], false)
		out[i] = res
		return e
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return out[0], out[1], out[2], nil
}

func fig12(opt Options) (*Report, error) {
	capped, spot, maxperf, err := longRun(opt, sim.TestbedOptions{})
	if err != nil {
		return nil, err
	}
	pricing := spot.Operator.Pricing()
	r := &Report{
		ID:    "fig12",
		Title: "Normalized tenant cost and performance; spot usage",
		Header: []string{"tenant", "cost (SpotDC/Capped)", "perf SpotDC", "perf MaxPerf",
			"max spot %res", "avg spot %res"},
	}
	var names []string
	for _, a := range []string{"Search-1", "Web", "Search-2", "Count-1", "Graph-1", "Count-2", "Sort", "Graph-2"} {
		names = append(names, a)
	}
	perfRatios := make([]float64, 0, len(names))
	for _, name := range names {
		ts := spot.Tenants[name]
		base := capped.Tenants[name]
		mp := maxperf.Tenants[name]
		costSpot, err := sim.TenantCost(spot, pricing, name)
		if err != nil {
			return nil, err
		}
		costCap, err := sim.TenantCost(capped, pricing, name)
		if err != nil {
			return nil, err
		}
		perfSpot, perfMax := 1.0, 1.0
		if base.PerfNeed.Mean() > 0 {
			perfSpot = ts.PerfNeed.Mean() / base.PerfNeed.Mean()
			perfMax = mp.PerfNeed.Mean() / base.PerfNeed.Mean()
		}
		perfRatios = append(perfRatios, perfSpot)
		r.AddRow(name, F(costSpot/costCap), F(perfSpot), F(perfMax),
			Pct(ts.GrantFrac.Max()), Pct(ts.GrantFrac.Mean()))
	}
	profit := spot.Profit(500)
	r.Notes = append(r.Notes,
		fmt.Sprintf("operator extra profit: %s (paper: 9.7%%)", Pct(profit.ExtraProfitFraction)),
		fmt.Sprintf("tenant performance improvement: %s–%s (paper: 1.2–1.8x)",
			F(minOf(perfRatios)), F(maxOf(perfRatios))))
	return r, nil
}

func minOf(xs []float64) float64 { m, _ := stats.Min(xs); return m }
func maxOf(xs []float64) float64 { m, _ := stats.Max(xs); return m }

func fig13(opt Options) (*Report, error) {
	tb := sim.TestbedOptions{Seed: opt.Seed, Slots: opt.LongSlots}
	spot, capped, err := twoModes(opt, tb, sim.ModeSpotDC, sim.ModePowerCapped, false)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig13",
		Title:  "CDF of market price; CDF of UPS power (normalized to capacity)",
		Header: []string{"x", "P(price ≤ x $/kWh)", "P(UPS power ≤ x·cap) SpotDC", "same, PowerCapped"},
	}
	prices := stats.NewCDF(spot.Prices)
	upsSpot := stats.NewCDF(spot.UPSPower)
	upsCap := stats.NewCDF(capped.UPSPower)
	capW := spot.Operator.Topology().UPSCapacity
	for _, x := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.7, 0.8, 0.9, 0.95, 1.0} {
		r.AddRow(F(x), F(prices.At(x)), F(upsSpot.At(x*capW)), F(upsCap.At(x*capW)))
	}
	mSpot := stats.Mean(spot.UPSPower) / capW
	mCap := stats.Mean(capped.UPSPower) / capW
	r.Notes = append(r.Notes,
		fmt.Sprintf("mean UPS utilization: %s (SpotDC) vs %s (PowerCapped)", Pct(mSpot), Pct(mCap)),
		fmt.Sprintf("median clearing price %s $/kWh over %d sold slots", F(median(prices)), prices.Len()))
	return r, nil
}

func median(c *stats.CDF) float64 {
	v, err := c.Quantile(0.5)
	if err != nil {
		return 0
	}
	return v
}

// sweepPoint runs one (policy, capacity-scale) cell of the Fig. 14/15
// availability sweep and reports the measured average spot availability
// (as % of subscriptions) alongside the run.
func sweepPoint(opt Options, policy tenant.BidPolicy, scale float64) (float64, *sim.Result, error) {
	tb := sim.TestbedOptions{
		Seed: opt.Seed, Slots: opt.LongSlots / 4, CapacityScale: scale, Policy: policy,
	}
	res, err := runTestbed(opt, tb, sim.ModeSpotDC, false)
	if err != nil {
		return 0, nil, err
	}
	subs := res.Operator.Topology().TotalGuaranteed() + 500
	return stats.Mean(res.SpotAvailable) / subs, res, nil
}

// availabilitySweep runs the testbed at several capacity scales — each an
// independent scenario, fanned out on the Options.Workers pool — and
// returns availability and per-scale results indexed like scales.
func availabilitySweep(opt Options, policy tenant.BidPolicy, scales []float64) ([]float64, []*sim.Result, error) {
	avail := make([]float64, len(scales))
	results := make([]*sim.Result, len(scales))
	err := par.ForErr(opt.Workers, len(scales), func(i int) error {
		a, res, e := sweepPoint(opt, policy, scales[i])
		if e != nil {
			return e
		}
		avail[i], results[i] = a, res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return avail, results, nil
}

// sweepScales spans the paper's Fig. 14/15 x-axis: from scarce spot
// capacity (well below the aggregate demand) to abundance where (almost)
// all demand is met.
var sweepScales = []float64{0.92, 0.95, 0.97, 1.0, 1.06}

func fig14(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig14",
		Title:  "Operator extra profit by demand function vs average spot availability",
		Header: []string{"capacity scale", "avg spot %subs", "StepBid", "LinearBid (SpotDC)", "FullBid"},
	}
	// The full (policy × scale) grid is one flat batch of independent
	// scenarios, so the fan-out pool stays saturated across policy
	// boundaries instead of draining between sweeps.
	policies := []tenant.BidPolicy{tenant.PolicyStep, tenant.PolicyElastic, tenant.PolicyFull}
	profits := make([][]float64, len(policies))
	for pi := range profits {
		profits[pi] = make([]float64, len(sweepScales))
	}
	avail := make([]float64, len(sweepScales))
	err := par.ForErr(opt.Workers, len(policies)*len(sweepScales), func(k int) error {
		pi, si := k/len(sweepScales), k%len(sweepScales)
		a, res, e := sweepPoint(opt, policies[pi], sweepScales[si])
		if e != nil {
			return e
		}
		profits[pi][si] = res.Profit(500).ExtraProfitFraction
		if pi == len(policies)-1 { // availability column: last policy, as before
			avail[si] = a
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cs := range sweepScales {
		r.AddRow(F(cs), Pct(avail[i]), Pct(profits[0][i]), Pct(profits[1][i]), Pct(profits[2][i]))
	}
	r.Notes = append(r.Notes,
		"LinearBid should beat StepBid (especially when spot is scarce) and approach FullBid, as in the paper")
	return r, nil
}

func fig15(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig15",
		Title:  "Operator profit and tenant performance vs spot availability",
		Header: []string{"capacity scale", "avg spot %subs", "extra profit", "mean perf vs capped", "median price"},
	}
	avail, results, err := availabilitySweep(opt, tenant.PolicyElastic, sweepScales)
	if err != nil {
		return nil, err
	}
	// The per-scale PowerCapped baselines are independent too.
	cappedRes := make([]*sim.Result, len(sweepScales))
	err = par.ForErr(opt.Workers, len(sweepScales), func(i int) error {
		tb := sim.TestbedOptions{Seed: opt.Seed, Slots: opt.LongSlots / 4, CapacityScale: sweepScales[i]}
		res, e := runTestbed(opt, tb, sim.ModePowerCapped, false)
		cappedRes[i] = res
		return e
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		perf := meanPerfRatio(res, cappedRes[i])
		r.AddRow(F(sweepScales[i]), Pct(avail[i]),
			Pct(res.Profit(500).ExtraProfitFraction), F(perf), F(median(stats.NewCDF(res.Prices))))
	}
	r.Notes = append(r.Notes, "more spot capacity: price goes down, profit and performance go up (saturating)")
	return r, nil
}

// sortedNames returns a result's tenant names in lexicographic order.
// Aggregations over tenants must accumulate floats in a fixed order — map
// iteration order would make report cells jitter in their last digits from
// run to run, defeating the suite's bit-reproducibility guarantee (the
// fan-out determinism tests compare reports cell-for-cell).
func sortedNames(tenants map[string]*sim.TenantStats) []string {
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// meanPerfRatio averages, across tenants that ever needed spot, the ratio
// of mean performance (over need slots) to the PowerCapped baseline.
func meanPerfRatio(res, capped *sim.Result) float64 {
	var ratios []float64
	for _, name := range sortedNames(res.Tenants) {
		ts := res.Tenants[name]
		base := capped.Tenants[name]
		if base == nil || ts.NeedSlots == 0 || base.PerfNeed.Mean() <= 0 {
			continue
		}
		ratios = append(ratios, ts.PerfNeed.Mean()/base.PerfNeed.Mean())
	}
	return stats.Mean(ratios)
}

func fig16(opt Options) (*Report, error) {
	slots := opt.LongSlots / 4
	base := sim.TestbedOptions{Seed: opt.Seed, Slots: slots}
	plain, err := runTestbed(opt, base, sim.ModeSpotDC, false)
	if err != nil {
		return nil, err
	}
	// Strategic run: sprinting tenants know the clearing price
	// (Fig. 16(a)). "Perfect knowledge" must be self-consistent — the
	// price they anticipate is the one their own strategic bids produce —
	// so the prediction is iterated to a fixed point. Each pass feeds on
	// the previous pass's prices, so this loop is inherently serial (the
	// fan-out pool cannot help here).
	prices := plain.PriceSeries
	var stratRes *sim.Result
	for pass := 0; pass < 3; pass++ {
		strat := base
		strat.Policy = tenant.PolicyPricePredict
		captured := prices
		strat.Hint = func(slot int) tenant.MarketHint {
			if slot < len(captured) && captured[slot] > 0 {
				return tenant.MarketHint{PredictedPrice: captured[slot], HavePrediction: true}
			}
			return tenant.MarketHint{}
		}
		stratRes, err = runTestbed(opt, strat, sim.ModeSpotDC, false)
		if err != nil {
			return nil, err
		}
		prices = stratRes.PriceSeries
	}
	capped, err := runTestbed(opt, base, sim.ModePowerCapped, false)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig16",
		Title:  "Default bidding vs price-predicting sprinting tenants",
		Header: []string{"metric", "default", "price-predict"},
	}
	grant := func(res *sim.Result) float64 {
		var g []float64
		for _, name := range sortedNames(res.Tenants) {
			if ts := res.Tenants[name]; ts.Class == workload.Sprinting {
				g = append(g, ts.GrantFrac.Mean())
			}
		}
		return stats.Mean(g)
	}
	perf := func(res *sim.Result) float64 {
		var g []float64
		for _, name := range sortedNames(res.Tenants) {
			ts := res.Tenants[name]
			if ts.Class == workload.Sprinting && capped.Tenants[name].PerfNeed.Mean() > 0 {
				g = append(g, ts.PerfNeed.Mean()/capped.Tenants[name].PerfNeed.Mean())
			}
		}
		return stats.Mean(g)
	}
	pay := func(res *sim.Result) float64 {
		t := 0.0
		for _, name := range sortedNames(res.Tenants) {
			if ts := res.Tenants[name]; ts.Class == workload.Sprinting {
				t += ts.Payment
			}
		}
		return t
	}
	r.AddRow("sprinting avg spot grant (%res)", Pct(grant(plain)), Pct(grant(stratRes)))
	r.AddRow("sprinting perf vs capped", F(perf(plain)), F(perf(stratRes)))
	r.AddRow("sprinting payments $", F(pay(plain)), F(pay(stratRes)))
	r.AddRow("operator extra profit", Pct(plain.Profit(500).ExtraProfitFraction), Pct(stratRes.Profit(500).ExtraProfitFraction))
	r.Notes = append(r.Notes, "paper: strategic sprinters gain spot capacity and performance; operator profit barely moves (within 0.05%)")
	return r, nil
}

func fig17(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig17",
		Title:  "Impact of spot capacity under-prediction",
		Header: []string{"under-prediction", "extra profit", "mean perf vs capped", "spot sold kWh"},
	}
	slots := opt.LongSlots / 4
	// The PowerCapped baseline and every under-prediction factor are
	// independent scenarios: run all six as one batch (index 0 is the
	// baseline, index i ≥ 1 is factors[i-1]).
	factors := []float64{0, 0.05, 0.10, 0.15, 0.20}
	var capped *sim.Result
	results := make([]*sim.Result, len(factors))
	err := par.ForErr(opt.Workers, len(factors)+1, func(i int) error {
		if i == 0 {
			res, e := runTestbed(opt, sim.TestbedOptions{Seed: opt.Seed, Slots: slots}, sim.ModePowerCapped, false)
			capped = res
			return e
		}
		tb := sim.TestbedOptions{Seed: opt.Seed, Slots: slots, UnderPrediction: factors[i-1]}
		res, e := runTestbed(opt, tb, sim.ModeSpotDC, false)
		results[i-1] = res
		return e
	})
	if err != nil {
		return nil, err
	}
	for i, f := range factors {
		res := results[i]
		r.AddRow(Pct(f), Pct(res.Profit(500).ExtraProfitFraction),
			F(meanPerfRatio(res, capped)), F(res.Operator.SpotEnergyKWh()))
	}
	r.Notes = append(r.Notes, "paper: under-prediction has nearly no impact, since profit-maximizing prices rarely sell all spot capacity anyway")
	return r, nil
}

func fig18(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig18",
		Title:  "Scaling the number of tenants (Table I composition, ±20% jitter)",
		Header: []string{"tenants", "extra profit", "mean cost vs capped", "mean perf vs capped"},
	}
	// Every (tenant count × mode) run is an independent scenario; fan out
	// the whole grid and assemble rows by index afterwards.
	counts := opt.ScaleTenants
	rows := make([][]string, len(counts))
	runs := make([]*sim.Result, 2*len(counts)) // [2i] spot, [2i+1] capped
	err := par.ForErr(opt.Workers, 2*len(counts), func(k int) error {
		n := counts[k/2]
		tb := sim.TestbedOptions{Seed: opt.Seed, Slots: opt.ScaleSlots}
		sc, e := sim.Scaled(sim.ScaledOptions{Testbed: tb, Tenants: n, JitterFrac: 0.2})
		if e != nil {
			return e
		}
		mode := sim.ModeSpotDC
		if k%2 == 1 {
			mode = sim.ModePowerCapped
		}
		res, e := sim.Run(sc, sim.RunOptions{Mode: mode, Registry: opt.Registry, Audit: opt.Audit, Tracer: opt.Tracer})
		runs[k] = res
		return e
	})
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		spot, capped := runs[2*i], runs[2*i+1]
		otherLeased := 500.0 * float64((n+7)/8)
		pricing := spot.Operator.Pricing()
		var costRatios []float64
		for _, name := range sortedNames(spot.Tenants) {
			cs, err := sim.TenantCost(spot, pricing, name)
			if err != nil {
				return nil, err
			}
			cc, err := sim.TenantCost(capped, pricing, name)
			if err != nil {
				return nil, err
			}
			if cc > 0 {
				costRatios = append(costRatios, cs/cc)
			}
		}
		rows[i] = []string{fmt.Sprint(n),
			Pct(spot.Profit(otherLeased).ExtraProfitFraction),
			F(stats.Mean(costRatios)),
			F(meanPerfRatio(spot, capped))}
	}
	r.Rows = append(r.Rows, rows...)
	r.Notes = append(r.Notes, "paper: results stabilize with scale at ≈+9.7% profit and ≈1.4x performance")
	return r, nil
}

// headline reproduces the Section V summary box: the numbers the paper's
// abstract quotes.
func headline(opt Options) (*Report, error) {
	capped, spot, _, err := longRun(opt, sim.TestbedOptions{})
	if err != nil {
		return nil, err
	}
	var perfs, costs []float64
	pricing := spot.Operator.Pricing()
	for _, name := range sortedNames(spot.Tenants) {
		ts := spot.Tenants[name]
		base := capped.Tenants[name]
		if ts.NeedSlots > 0 && base.PerfNeed.Mean() > 0 {
			perfs = append(perfs, ts.PerfNeed.Mean()/base.PerfNeed.Mean())
		}
		cs, err := sim.TenantCost(spot, pricing, name)
		if err != nil {
			return nil, err
		}
		cc, err := sim.TenantCost(capped, pricing, name)
		if err != nil {
			return nil, err
		}
		if cc > 0 {
			costs = append(costs, cs/cc-1)
		}
	}
	r := &Report{
		ID:     "headline",
		Title:  "Section V headline: operator profit, tenant performance and cost",
		Header: []string{"metric", "paper", "measured"},
	}
	r.AddRow("operator extra profit", "9.7%", Pct(spot.Profit(500).ExtraProfitFraction))
	r.AddRow("tenant perf improvement", "1.2-1.8x avg", fmt.Sprintf("%s-%sx", F(minOf(perfs)), F(maxOf(perfs))))
	r.AddRow("tenant extra cost (min)", "as low as 0.3-0.5%", Pct(minOf(costs)))
	r.AddRow("tenant extra cost (max)", "higher for opportunistic", Pct(maxOf(costs)))
	r.AddRow("emergency slots added by spot", "0", fmt.Sprint(spot.EmergencySlots-capped.EmergencySlots))
	return r, nil
}
