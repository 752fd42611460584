package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"spotdc/internal/stats"
)

func TestGeneratePowerValidation(t *testing.T) {
	base := PowerConfig{Slots: 10, MeanWatts: 100, MinWatts: 50, MaxWatts: 150, Volatility: 0.01}
	cases := []struct {
		name string
		mod  func(*PowerConfig)
	}{
		{"zero slots", func(c *PowerConfig) { c.Slots = 0 }},
		{"max<=min", func(c *PowerConfig) { c.MaxWatts = 50 }},
		{"mean below min", func(c *PowerConfig) { c.MeanWatts = 10 }},
		{"mean above max", func(c *PowerConfig) { c.MeanWatts = 1000 }},
		{"bad persistence", func(c *PowerConfig) { c.Persistence = 1.5 }},
	}
	for _, c := range cases {
		cfg := base
		c.mod(&cfg)
		if _, err := GeneratePower(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestGeneratePowerBounds(t *testing.T) {
	p, err := GeneratePower(PowerConfig{
		Name: "pdu", Seed: 7, Slots: 5000,
		MeanWatts: 200, MinWatts: 120, MaxWatts: 260, Volatility: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5000 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i, w := range p.Watts {
		if w < 120 || w > 260 {
			t.Fatalf("slot %d power %v escapes [120,260]", i, w)
		}
	}
	m := stats.Mean(p.Watts)
	if m < 150 || m > 250 {
		t.Errorf("mean %v far from configured 200", m)
	}
}

// The headline calibration target from Section III-C / Fig. 7(a): at
// production-grade volatility, PDU power changes by no more than ±2.5%
// between consecutive one-minute slots for at least 99% of slots.
func TestGeneratePowerMatchesProductionVariation(t *testing.T) {
	p, err := GeneratePower(PowerConfig{
		Name: "prod", Seed: 42, Slots: 3 * 30 * 24 * 60, // three months of minutes
		SlotSeconds: 60,
		MeanWatts:   250e3, MinWatts: 100e3, MaxWatts: 300e3,
		Volatility: 0.008, Diurnal: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := stats.RelDiffs(p.Watts)
	within := 0
	for _, r := range rel {
		if r <= 0.025 {
			within++
		}
	}
	frac := float64(within) / float64(len(rel))
	if frac < 0.99 {
		t.Errorf("only %.4f of slots within ±2.5%% variation, want ≥0.99", frac)
	}
}

func TestGeneratePowerDeterministic(t *testing.T) {
	cfg := PowerConfig{Seed: 3, Slots: 100, MeanWatts: 100, MinWatts: 0, MaxWatts: 200, Volatility: 0.05}
	a, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Watts {
		if a.Watts[i] != b.Watts[i] {
			t.Fatalf("slot %d differs: %v vs %v", i, a.Watts[i], b.Watts[i])
		}
	}
	cfg.Seed = 4
	c, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Watts {
		if a.Watts[i] != c.Watts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratePowerDiurnalSwing(t *testing.T) {
	p, err := GeneratePower(PowerConfig{
		Seed: 1, Slots: 2 * 24 * 60, SlotSeconds: 60,
		MeanWatts: 100, MinWatts: 0, MaxWatts: 200,
		Volatility: 0.001, Diurnal: 0.3, Persistence: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	mn, _ := stats.Min(p.Watts)
	mx, _ := stats.Max(p.Watts)
	if mx-mn < 40 { // expect roughly 2*0.3*100 = 60 W swing
		t.Errorf("diurnal swing too small: max-min = %v", mx-mn)
	}
}

func TestPowerAtWraps(t *testing.T) {
	p := &Power{Watts: []float64{1, 2, 3}}
	if p.At(0) != 1 || p.At(3) != 1 || p.At(4) != 2 || p.At(-1) != 3 {
		t.Errorf("At wrap: %v %v %v %v", p.At(0), p.At(3), p.At(4), p.At(-1))
	}
	empty := &Power{}
	if empty.At(5) != 0 {
		t.Error("empty trace should read 0")
	}
}

func TestGenerateArrivals(t *testing.T) {
	a, err := GenerateArrivals(ArrivalConfig{
		Name: "google", Seed: 9, Slots: 30 * 24 * 30, SlotSeconds: 120,
		BaseRate: 50, PeakRate: 150, BurstFraction: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.Watts {
		if r < 0 {
			t.Fatalf("negative rate at slot %d", i)
		}
	}
	if m := stats.Mean(a.Watts); m < 60 || m > 160 {
		t.Errorf("mean rate %v implausible for base=50 peak=150", m)
	}
	// Bursts should push an appreciable fraction of slots above the diurnal
	// ceiling; with factor 1.5 the ceiling is 150, bursts reach ~225.
	above := 0
	for _, r := range a.Watts {
		if r > 160 {
			above++
		}
	}
	frac := float64(above) / float64(len(a.Watts))
	if frac < 0.02 || frac > 0.30 {
		t.Errorf("burst fraction above ceiling = %.3f, want within (0.02, 0.30)", frac)
	}
}

func TestGenerateArrivalsValidation(t *testing.T) {
	if _, err := GenerateArrivals(ArrivalConfig{Slots: 0}); err == nil {
		t.Error("zero slots should fail")
	}
	if _, err := GenerateArrivals(ArrivalConfig{Slots: 5, BaseRate: 10, PeakRate: 5}); err == nil {
		t.Error("peak<base should fail")
	}
	if _, err := GenerateArrivals(ArrivalConfig{Slots: 5, PeakRate: 5, BurstFraction: 2}); err == nil {
		t.Error("burst fraction >1 should fail")
	}
}

func TestGenerateBacklog(t *testing.T) {
	b, err := GenerateBacklog(BacklogConfig{
		Name: "batch", Seed: 5, Slots: 100000, ActiveFraction: 0.3, MeanUnits: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, v := range b.Watts {
		if v < 0 {
			t.Fatal("negative backlog")
		}
		if v > 0 {
			active++
		}
	}
	frac := float64(active) / float64(b.Len())
	if math.Abs(frac-0.3) > 0.05 {
		t.Errorf("active fraction %.3f, want ≈0.30", frac)
	}
}

func TestGenerateBacklogValidation(t *testing.T) {
	if _, err := GenerateBacklog(BacklogConfig{Slots: 0}); err == nil {
		t.Error("zero slots should fail")
	}
	if _, err := GenerateBacklog(BacklogConfig{Slots: 5, ActiveFraction: -0.1}); err == nil {
		t.Error("negative fraction should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p := &Power{Name: "rt", SlotSeconds: 120, Watts: []float64{1.5, 2.25, 0}}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.SlotSeconds != 120 {
		t.Errorf("metadata: %+v", got)
	}
	if got.Len() != 3 || got.Watts[0] != 1.5 || got.Watts[1] != 2.25 || got.Watts[2] != 0 {
		t.Errorf("values: %v", got.Watts)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"0;1.5\n",
		"0,notanumber\n",
		"# slot_seconds=abc\n0,1\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ReadCSV(%q) err = %v, want ErrBadTrace", in, err)
		}
	}
	// Blank lines and comments are fine.
	got, err := ReadCSV(strings.NewReader("\n# name=ok\n0,1\n\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ok" || got.Len() != 2 {
		t.Errorf("got %+v", got)
	}
}

// Property: generated power never escapes the configured bounds and a CSV
// round trip is lossless to 1e-6.
func TestQuickPowerRoundTrip(t *testing.T) {
	f := func(seed int64, slots uint8, meanPct uint8) bool {
		n := int(slots%200) + 1
		mean := 100 + float64(meanPct%100)
		cfg := PowerConfig{
			Seed: seed, Slots: n, MeanWatts: mean,
			MinWatts: 50, MaxWatts: 250, Volatility: 0.05,
		}
		p, err := GeneratePower(cfg)
		if err != nil {
			return false
		}
		for _, w := range p.Watts {
			if w < 50 || w > 250 {
				return false
			}
		}
		var buf bytes.Buffer
		if err := p.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != p.Len() {
			return false
		}
		for i := range got.Watts {
			if math.Abs(got.Watts[i]-p.Watts[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
