package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLinearBidValidate(t *testing.T) {
	ok := LinearBid{DMax: 50, DMin: 10, QMin: 0.05, QMax: 0.2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid bid rejected: %v", err)
	}
	bad := []LinearBid{
		{DMax: 50, DMin: -1, QMin: 0.05, QMax: 0.2},
		{DMax: 5, DMin: 10, QMin: 0.05, QMax: 0.2},
		{DMax: 50, DMin: 10, QMin: -0.01, QMax: 0.2},
		{DMax: 50, DMin: 10, QMin: 0.3, QMax: 0.2},
	}
	for i, b := range bad {
		if err := b.Validate(); !errors.Is(err, ErrBid) {
			t.Errorf("bad bid %d accepted: %v", i, err)
		}
	}
}

func TestLinearBidSegments(t *testing.T) {
	b := LinearBid{DMax: 100, DMin: 20, QMin: 0.1, QMax: 0.3}
	cases := []struct {
		price, want float64
	}{
		{0, 100},      // below qmin: horizontal segment
		{0.1, 100},    // at qmin
		{0.2, 60},     // midpoint of linear segment
		{0.3, 20},     // at qmax: Dmin
		{0.300001, 0}, // above qmax: zero
		{1, 0},
	}
	for _, c := range cases {
		if got := b.Demand(c.price); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Demand(%v) = %v, want %v", c.price, got, c.want)
		}
	}
	if b.MaxDemand() != 100 || b.MaxPrice() != 0.3 {
		t.Errorf("MaxDemand/MaxPrice = %v/%v", b.MaxDemand(), b.MaxPrice())
	}
}

func TestLinearBidDegeneratesToStep(t *testing.T) {
	// QMin == QMax: the paper says this reduces to StepBid.
	b := LinearBid{DMax: 80, DMin: 80, QMin: 0.2, QMax: 0.2}
	if got := b.Demand(0.2); got != 80 {
		t.Errorf("Demand at qmax = %v, want 80", got)
	}
	if got := b.Demand(0.21); got != 0 {
		t.Errorf("Demand above qmax = %v, want 0", got)
	}
	step := StepBid{D: 80, QMax: 0.2}
	for _, q := range []float64{0, 0.1, 0.2, 0.25, 1} {
		if b.Demand(q) != step.Demand(q) {
			t.Errorf("degenerate LinearBid(%v)=%v != StepBid=%v", q, b.Demand(q), step.Demand(q))
		}
	}
}

func TestStepBid(t *testing.T) {
	b := StepBid{D: 60, QMax: 0.15}
	if b.Demand(0.15) != 60 || b.Demand(0.1500001) != 0 || b.Demand(0) != 60 {
		t.Error("StepBid demand wrong")
	}
	if b.MaxDemand() != 60 || b.MaxPrice() != 0.15 {
		t.Error("StepBid accessors wrong")
	}
}

func TestFullBidValidation(t *testing.T) {
	if _, err := NewFullBid(nil); !errors.Is(err, ErrBid) {
		t.Error("empty full bid accepted")
	}
	bad := [][]PricePoint{
		{{Price: -1, Demand: 10}},
		{{Price: 0.1, Demand: -5}},
		{{Price: 0.1, Demand: 10}, {Price: 0.1, Demand: 5}},                           // duplicate price
		{{Price: 0.1, Demand: 10}, {Price: 0.2, Demand: 20}},                          // increasing demand
		{{Price: 0.3, Demand: 5}, {Price: 0.1, Demand: 10}, {Price: 0.2, Demand: 20}}, // unsorted, still increasing after sort
	}
	for i, pts := range bad {
		if _, err := NewFullBid(pts); !errors.Is(err, ErrBid) {
			t.Errorf("bad full bid %d accepted", i)
		}
	}
}

func TestFullBidInterpolation(t *testing.T) {
	fb, err := NewFullBid([]PricePoint{
		{Price: 0.3, Demand: 10}, // deliberately unsorted input
		{Price: 0.1, Demand: 100},
		{Price: 0.2, Demand: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ price, want float64 }{
		{0, 100},   // below first point
		{0.1, 100}, // at first point
		{0.15, 70}, // interpolated
		{0.2, 40},
		{0.25, 25},
		{0.3, 10},
		{0.31, 0}, // beyond last point
	}
	for _, c := range cases {
		if got := fb.Demand(c.price); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Demand(%v) = %v, want %v", c.price, got, c.want)
		}
	}
	if fb.MaxDemand() != 100 || fb.MaxPrice() != 0.3 {
		t.Errorf("accessors: %v/%v", fb.MaxDemand(), fb.MaxPrice())
	}
	if len(fb.points) != 3 || fb.points[0].Price != 0.1 {
		t.Errorf("points = %v", fb.points)
	}
}

func TestBundle(t *testing.T) {
	bids, err := Bundle("web", []int{2, 5}, []float64{60, 40}, []float64{20, 10}, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bids) != 2 {
		t.Fatalf("len = %d", len(bids))
	}
	if bids[0].Rack != 2 || bids[1].Rack != 5 || bids[0].Tenant != "web" {
		t.Errorf("bids = %+v", bids)
	}
	// Both racks share the price pair; demands are joined affinely.
	d0 := bids[0].Fn.Demand(0.175) // midpoint: (60+20)/2 = 40
	d1 := bids[1].Fn.Demand(0.175) // (40+10)/2 = 25
	if math.Abs(d0-40) > 1e-9 || math.Abs(d1-25) > 1e-9 {
		t.Errorf("midpoint demands = %v, %v", d0, d1)
	}
	if _, err := Bundle("x", []int{1}, []float64{1, 2}, []float64{1}, 0, 1); !errors.Is(err, ErrBid) {
		t.Error("length mismatch accepted")
	}
	if _, err := Bundle("x", []int{1}, []float64{1}, []float64{5}, 0, 1); !errors.Is(err, ErrBid) {
		t.Error("DMin > DMax accepted")
	}
}

func TestAggregateDemand(t *testing.T) {
	bids := []Bid{
		{Rack: 0, Fn: LinearBid{DMax: 100, DMin: 0, QMin: 0, QMax: 1}},
		{Rack: 1, Fn: StepBid{D: 50, QMax: 0.5}},
	}
	if got := AggregateDemand(bids, 0); got != 150 {
		t.Errorf("at 0: %v", got)
	}
	if got := AggregateDemand(bids, 0.5); got != 100 {
		t.Errorf("at 0.5: %v", got)
	}
	if got := AggregateDemand(bids, 0.6); got != 40 {
		t.Errorf("at 0.6: %v", got)
	}
	if got := AggregateDemand(nil, 0.5); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

// Property: every demand function is non-increasing in price and bounded by
// MaxDemand, and is zero above MaxPrice.
func TestQuickDemandMonotone(t *testing.T) {
	mk := func(dMax, dMin, qMin, qMax float64) []DemandFunc {
		lb := LinearBid{DMax: dMax, DMin: dMin, QMin: qMin, QMax: qMax}
		fb, err := NewFullBid([]PricePoint{
			{Price: qMin, Demand: dMax},
			{Price: qMax, Demand: dMin},
		})
		fns := []DemandFunc{lb, StepBid{D: dMax, QMax: qMax}}
		if err == nil {
			fns = append(fns, fb)
		}
		return fns
	}
	f := func(a, b, c, d uint16, p1, p2 uint16) bool {
		dMax := float64(a%1000) + float64(b%1000)
		dMin := float64(b % 1000)
		qMin := float64(c%100) / 100
		qMax := qMin + float64(d%100)/100 + 0.01
		lo := float64(p1%200) / 100
		hi := lo + float64(p2%200)/100
		for _, fn := range mk(dMax, dMin, qMin, qMax) {
			dl, dh := fn.Demand(lo), fn.Demand(hi)
			if dh > dl+1e-9 {
				return false // not non-increasing
			}
			if dl > fn.MaxDemand()+1e-9 || dl < 0 || dh < 0 {
				return false
			}
			if fn.Demand(fn.MaxPrice()+0.001) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
