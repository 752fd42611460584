package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// fastOpt shrinks horizons so the full experiment suite runs in seconds.
func fastOpt() Options {
	return Options{
		Seed:          42,
		LongSlots:     1600,
		ScaleTenants:  []int{8, 24},
		ScaleSlots:    80,
		ClearingRacks: []int{500},
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2b", "fig3", "fig7a", "fig7b", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
		if title, ok := Title(id); !ok || title == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := Title("bogus"); ok {
		t.Error("bogus title found")
	}
	if _, err := Run("bogus", Options{}); err == nil {
		t.Error("bogus experiment ran")
	}
}

// pct parses a report percentage cell like "9.7%".
func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", cell, err)
	}
	return v
}

func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", cell, err)
	}
	return v
}

func TestEveryExperimentProducesRowsAndPrints(t *testing.T) {
	opt := fastOpt()
	for _, id := range IDs() {
		rep, err := Run(id, opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id {
			t.Errorf("%s: report has ID %s", id, rep.ID)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		var buf bytes.Buffer
		if err := rep.Fprint(&buf); err != nil {
			t.Errorf("%s: print: %v", id, err)
		}
		if !strings.Contains(buf.String(), id) {
			t.Errorf("%s: printout missing ID", id)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rep, err := Run("table1", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rep.Rows))
	}
	subs := map[string]string{"Search-1": "145W", "Web": "115W", "Count-1": "125W", "Sort": "125W"}
	seen := 0
	for _, row := range rep.Rows {
		if want, ok := subs[row[1]]; ok {
			seen++
			if row[5] != want {
				t.Errorf("%s subscription = %s, want %s", row[1], row[5], want)
			}
		}
	}
	if seen != 4 {
		t.Errorf("only matched %d known tenants", seen)
	}
}

func TestFig2bShowsOversubscriptionEffect(t *testing.T) {
	rep, err := Run("fig2b", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// At every sampled normalized power, the oversubscribed (7-tenant) CDF
	// must sit at or below the 5-tenant CDF (higher utilization).
	for _, row := range rep.Rows {
		c5, c7 := num(t, row[1]), num(t, row[2])
		if c7 > c5+1e-9 {
			t.Errorf("at %s: 7-tenant CDF %v above 5-tenant %v", row[0], c7, c5)
		}
	}
}

func TestFig3DemandShapes(t *testing.T) {
	rep, err := Run("fig3", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	prevRef, prevAgg := 1e18, 1e18
	for _, row := range rep.Rows {
		ref, lin, step, agg := num(t, row[1]), num(t, row[2]), num(t, row[3]), num(t, row[4])
		if ref > prevRef+1e-9 || agg > prevAgg+1e-9 {
			t.Errorf("demand not monotone at price %s", row[0])
		}
		prevRef, prevAgg = ref, agg
		if lin < 0 || step < 0 {
			t.Errorf("negative demand at price %s", row[0])
		}
	}
	// Step bid must be flat at the maximum demand until it drops to zero.
	first := num(t, rep.Rows[0][3])
	sawZero := false
	for _, row := range rep.Rows {
		s := num(t, row[3])
		if s != 0 && sawZero {
			t.Error("step bid recovered after dropping to zero")
		}
		if s == 0 {
			sawZero = true
		} else if s != first {
			t.Errorf("step bid not flat: %v vs %v", s, first)
		}
	}
}

func TestFig7aVariationWithinPaperBound(t *testing.T) {
	rep, err := Run("fig7a", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Row with threshold 2.5% must be ≥ 0.99 (Section III-C's statistic).
	for _, row := range rep.Rows {
		if row[0] == "2.5%" {
			if frac := num(t, row[1]); frac < 0.99 {
				t.Errorf("only %v of slots within ±2.5%%", frac)
			}
			return
		}
	}
	t.Fatal("2.5% row missing")
}

func TestFig7bClearingFast(t *testing.T) {
	rep, err := Run("fig7b", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // one rack count × two step sizes × two algorithms
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Rows alternate scan/exact; the exact engine must never be slower than
	// the scan by more than noise on the same market (it does O(B log B)
	// work instead of O(prices × bids)).
	for _, row := range rep.Rows {
		if row[2] != "scan" && row[2] != "exact" {
			t.Fatalf("unexpected algorithm column %q", row[2])
		}
	}
}

func TestFig9GainsOrdered(t *testing.T) {
	rep, err := Run("fig9", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Gains are non-decreasing in spot watts for every tenant, and the
	// Search tenant values spot capacity the most (it bids highest).
	prev := []float64{-1, -1, -1}
	for _, row := range rep.Rows {
		for c := 1; c <= 3; c++ {
			g := num(t, row[c])
			if g < prev[c-1]-1e-9 {
				t.Errorf("gain column %d decreases at %s W", c, row[0])
			}
			prev[c-1] = g
		}
	}
	last := rep.Rows[len(rep.Rows)-1]
	if num(t, last[1]) <= num(t, last[3]) {
		t.Errorf("search gain %s not above opportunistic %s", last[1], last[3])
	}
}

func TestFig10AllocationWithinAvailability(t *testing.T) {
	rep, err := Run("fig10", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 slots", len(rep.Rows))
	}
	soldAny := false
	for _, row := range rep.Rows {
		avail, sold := num(t, row[2]), num(t, row[3])
		if sold > avail+1e-6 {
			t.Errorf("slot %s sold %v of %v available", row[0], sold, avail)
		}
		if sold > 0 {
			soldAny = true
		}
	}
	if !soldAny {
		t.Error("demo trace sold nothing")
	}
}

func TestFig11SpotDCBeatsCapped(t *testing.T) {
	rep, err := Run("fig11", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Search-1's perf under SpotDC must dominate the capped trace.
	wins, active := 0, 0
	for _, row := range rep.Rows {
		spot, capped := num(t, row[1]), num(t, row[2])
		if spot == 0 && capped == 0 {
			continue
		}
		active++
		if spot >= capped-1e-9 {
			wins++
		}
	}
	if active == 0 || wins < active {
		t.Errorf("SpotDC won only %d of %d active slots", wins, active)
	}
}

func TestFig12PaperHeadlines(t *testing.T) {
	rep, err := Run("fig12", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 tenants", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		cost := num(t, row[1])
		if cost < 1-1e-9 || cost > 1.15 {
			t.Errorf("%s cost ratio %v outside (1, 1.15): spot must cost something but stay marginal", row[0], cost)
		}
		perf := num(t, row[2])
		if perf < 1 || perf > 4 {
			t.Errorf("%s perf ratio %v implausible", row[0], perf)
		}
		perfMax := num(t, row[3])
		if perfMax < perf*0.8 {
			t.Errorf("%s MaxPerf %v well below SpotDC %v", row[0], perfMax, perf)
		}
	}
}

func TestFig13UtilizationImproves(t *testing.T) {
	rep, err := Run("fig13", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// At every sampled utilization level, SpotDC's UPS-power CDF sits at or
	// below PowerCapped's: SpotDC shifts power upward (more utilization).
	leq := 0
	for _, row := range rep.Rows {
		s, c := num(t, row[2]), num(t, row[3])
		if s <= c+1e-9 {
			leq++
		}
	}
	if leq < len(rep.Rows)-1 {
		t.Errorf("SpotDC CDF above PowerCapped at %d of %d points", len(rep.Rows)-leq, len(rep.Rows))
	}
}

func TestFig14LinearBeatsStepApproachesFull(t *testing.T) {
	rep, err := Run("fig14", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	linWins := 0
	for _, row := range rep.Rows {
		step, lin, full := pct(t, row[2]), pct(t, row[3]), pct(t, row[4])
		if lin >= step-0.2 {
			linWins++
		}
		if lin > full+1.0 {
			t.Errorf("linear profit %v%% above full-curve %v%% at scale %s", lin, full, row[0])
		}
	}
	if linWins < len(rep.Rows) {
		t.Errorf("LinearBid beat StepBid at only %d of %d availabilities", linWins, len(rep.Rows))
	}
}

func TestFig15ProfitGrowsWithAvailability(t *testing.T) {
	rep, err := Run("fig15", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	first := pct(t, rep.Rows[0][2])
	last := pct(t, rep.Rows[len(rep.Rows)-1][2])
	if last <= first {
		t.Errorf("profit did not grow with availability: %v%% → %v%%", first, last)
	}
	pFirst := num(t, rep.Rows[0][3])
	pLast := num(t, rep.Rows[len(rep.Rows)-1][3])
	if pLast < pFirst-0.05 {
		t.Errorf("performance fell with availability: %v → %v", pFirst, pLast)
	}
}

func TestFig16StrategicBiddersGainSpot(t *testing.T) {
	rep, err := Run("fig16", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string][2]float64{}
	for _, row := range rep.Rows {
		var a, b float64
		if strings.HasSuffix(row[1], "%") {
			a, b = pct(t, row[1]), pct(t, row[2])
		} else {
			a, b = num(t, row[1]), num(t, row[2])
		}
		byMetric[row[0]] = [2]float64{a, b}
	}
	grant := byMetric["sprinting avg spot grant (%res)"]
	if grant[1] < grant[0]-1.0 {
		t.Errorf("price-predicting sprinters got less spot: %v vs %v", grant[1], grant[0])
	}
	// The paper reports the operator's profit barely moves. Our endogenous
	// revenue-maximizing pricing extracts more from the inelastic strategic
	// bids, so the profit shifts upward — a documented divergence
	// (EXPERIMENTS.md); it must not *fall*, and sprinters must not pay
	// disproportionately more.
	profit := byMetric["operator extra profit"]
	if diff := profit[1] - profit[0]; diff < -2 || diff > 12 {
		t.Errorf("operator profit shift implausible under strategic bidding: %v", diff)
	}
	pay := byMetric["sprinting payments $"]
	if pay[1] > pay[0]*1.25+1e-9 {
		t.Errorf("strategic sprinters paid %v, way above default %v", pay[1], pay[0])
	}
}

func TestFig17UnderPredictionNearlyFlat(t *testing.T) {
	rep, err := Run("fig17", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	base := pct(t, rep.Rows[0][1])
	for _, row := range rep.Rows {
		p := pct(t, row[1])
		if base != 0 && (p < base*0.5 || p > base*1.5) {
			t.Errorf("under-prediction %s moved profit from %v%% to %v%%; paper says nearly no impact",
				row[0], base, p)
		}
	}
}

func TestFig18StableAcrossScale(t *testing.T) {
	rep, err := Run("fig18", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if p := pct(t, row[1]); p <= 0 {
			t.Errorf("%s tenants: extra profit %v%% not positive", row[0], p)
		}
		if perf := num(t, row[3]); perf < 1.05 {
			t.Errorf("%s tenants: perf %v barely above capped", row[0], perf)
		}
	}
}

func TestReportHelpers(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	if len(r.Rows) != 1 || r.Rows[0][0] != "1" || r.Rows[0][1] != "2" {
		t.Errorf("rows = %v", r.Rows)
	}
	if F(1.23456) != "1.235" {
		t.Errorf("F = %s", F(1.23456))
	}
	if Pct(0.097) != "9.7%" {
		t.Errorf("Pct = %s", Pct(0.097))
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== x: t ==") {
		t.Errorf("printout: %s", buf.String())
	}
}

func TestAblationAndExtensionRegistry(t *testing.T) {
	want := []string{"abl-pricing", "abl-granularity", "abl-ration", "abl-step",
		"ext-predictor", "ext-bestresponse", "ext-faults", "ext-batch", "ext-emergency", "headline"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("%s not registered", id)
		}
	}
}

func TestAblRationFixesScaling(t *testing.T) {
	opt := fastOpt()
	opt.ScaleTenants = []int{48}
	opt.ScaleSlots = 150
	rep, err := Run("abl-ration", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		strict, rationed := pct(t, row[1]), pct(t, row[2])
		if rationed < strict-0.5 {
			t.Errorf("%s tenants: rationing (%v%%) below strict (%v%%)", row[0], rationed, strict)
		}
	}
}

func TestExtBatchSpotCutsTJob(t *testing.T) {
	rep, err := Run("ext-batch", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	tCapped := num(t, rep.Rows[0][2])
	tSpot := num(t, rep.Rows[1][2])
	if tSpot >= tCapped {
		t.Errorf("spot T_job %v not below capped %v", tSpot, tCapped)
	}
}

func TestExtEmergencyBoundsExcursions(t *testing.T) {
	rep, err := Run("ext-emergency", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	off, on := rep.Rows[0], rep.Rows[1]
	offSlots, onSlots := num(t, off[1]), num(t, on[1])
	offRun, onRun := num(t, off[2]), num(t, on[2])
	if offSlots == 0 {
		t.Fatal("overload schedule never fired with the responder off")
	}
	if offRun < 5 {
		t.Errorf("responder-off longest excursion %v, want the full 5-slot window", offRun)
	}
	if acted := num(t, on[3]); acted == 0 {
		t.Error("responder never acted")
	}
	if onRun > 2 {
		t.Errorf("responder-on longest excursion %v, want ≤ 2", onRun)
	}
	if onSlots >= offSlots {
		t.Errorf("responder did not reduce emergency slots: %v vs %v", onSlots, offSlots)
	}
	if gcut := num(t, on[5]); gcut != 0 {
		t.Errorf("guaranteed capacity cut: %v W", gcut)
	}
}

func TestExtFaultsMonotone(t *testing.T) {
	opt := fastOpt()
	rep, err := Run("ext-faults", opt)
	if err != nil {
		t.Fatal(err)
	}
	// With no faults the market must add zero emergencies. Under bid loss,
	// a rack bursting from idle in the very slot its submission is lost is
	// referenced at its idle draw (Section III-C), so the operator can
	// momentarily sell slack the tenant takes back — a coincidence of three
	// independent rare events. Such excursions must stay rare (≤2% of
	// slots); asserting exactly zero would just encode one lucky RNG
	// sequence, not a property of the mechanism.
	slots := opt.LongSlots / 8
	maxEm := slots / 50
	if maxEm < 1 {
		maxEm = 1
	}
	prevProfit := 1e18
	for i, row := range rep.Rows {
		p := pct(t, row[2])
		if p > prevProfit+0.5 {
			t.Errorf("profit rose with more bid loss: %v after %v", p, prevProfit)
		}
		prevProfit = p
		em := int(num(t, row[4]))
		if i == 0 && em != 0 {
			t.Errorf("emergencies without bid loss: %d", em)
		}
		if em > maxEm {
			t.Errorf("bid loss caused %d emergency slots of %d (max %d)", em, slots, maxEm)
		}
	}
}

func TestHeadlineShape(t *testing.T) {
	rep, err := Run("headline", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if p := pct(t, rep.Rows[0][2]); p < 3 || p > 25 {
		t.Errorf("headline profit %v%% outside plausible band", p)
	}
	if rep.Rows[4][2] != "0" {
		t.Errorf("spot added emergencies: %s", rep.Rows[4][2])
	}
}

func TestExtBestResponseConverges(t *testing.T) {
	rep, err := Run("ext-bestresponse", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last[5] != "0" {
		t.Errorf("dynamics still moving at the last round: %v", last)
	}
}
