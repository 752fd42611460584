package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanSum(t *testing.T) {
	cases := []struct {
		in        []float64
		mean, sum float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 5},
		{[]float64{1, 2, 3, 4}, 2.5, 10},
		{[]float64{-1, 1}, 0, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.mean, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.mean)
		}
		if got := Sum(c.in); !almostEqual(got, c.sum, 1e-12) {
			t.Errorf("Sum(%v) = %v, want %v", c.in, got, c.sum)
		}
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
	mn, err := Min([]float64{3, -2, 7})
	if err != nil || mn != -2 {
		t.Errorf("Min = %v, %v; want -2, nil", mn, err)
	}
	mx, err := Max([]float64{3, -2, 7})
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{4}); got != 0 {
		t.Errorf("StdDev single = %v, want 0", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p50, err := Percentile(xs, 50)
	if err != nil || !almostEqual(p50, 5.5, 1e-12) {
		t.Errorf("p50 = %v, %v; want 5.5", p50, err)
	}
	p0, _ := Percentile(xs, 0)
	if p0 != 1 {
		t.Errorf("p0 = %v, want 1", p0)
	}
	p100, _ := Percentile(xs, 100)
	if p100 != 10 {
		t.Errorf("p100 = %v, want 10", p100)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should fail")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.At(2.5); got != 0.5 {
		t.Errorf("At(2.5) = %v, want 0.5", got)
	}
	q, err := c.Quantile(0.5)
	if err != nil || !almostEqual(q, 2.5, 1e-12) {
		t.Errorf("Quantile(0.5) = %v, %v; want 2.5", q, err)
	}
	if _, err := c.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) should fail")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := &CDF{}
	if got := c.At(10); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
	if _, err := c.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty Quantile err = %v, want ErrEmpty", err)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Max() != 0 {
		t.Fatal("zero Running should be all zeros")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Observe(x)
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if r.Max() != 9 {
		t.Errorf("Max = %v, want 9", r.Max())
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Running
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		r.Observe(xs[i])
	}
	if !almostEqual(r.Mean(), Mean(xs), 1e-9) {
		t.Errorf("running mean %v != batch %v", r.Mean(), Mean(xs))
	}
}

func TestDiffs(t *testing.T) {
	if RelDiffs([]float64{1}) != nil {
		t.Error("RelDiffs of single element should be nil")
	}
	rd := RelDiffs([]float64{100, 105, 0, 50})
	// 100->105 gives 0.05; 105->0 gives 1; 0->50 skipped.
	if len(rd) != 2 || !almostEqual(rd[0], 0.05, 1e-12) || !almostEqual(rd[1], 1, 1e-12) {
		t.Errorf("RelDiffs = %v", rd)
	}
}

// Property: quantile is an inverse of At up to sample resolution.
func TestQuickCDFQuantileConsistent(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v, err := c.Quantile(q)
			if err != nil {
				return false
			}
			// At(v) must cover at least fraction q of the sample, up to the
			// 1/n resolution lost to linear interpolation between ranks.
			if c.At(v)+1/float64(c.Len())+1e-9 < q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(xs, p1)
		v2, err2 := Percentile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v1 <= v2+1e-9 && v1 >= sorted[0]-1e-9 && v2 <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Running min/max/mean agree with batch on arbitrary input.
func TestQuickRunningAgreesWithBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Observe(x)
		}
		mx, _ := Max(xs)
		scale := math.Max(1, math.Abs(Mean(xs)))
		return r.Max() == mx && almostEqual(r.Mean(), Mean(xs), 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Error("alpha >1 accepted")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Value(); ok {
		t.Error("empty EWMA reports a value")
	}
	e.Observe(10)
	if v, ok := e.Value(); !ok || v != 10 {
		t.Errorf("first sample: %v, %v", v, ok)
	}
	e.Observe(20) // 0.5*20 + 0.5*10 = 15
	if v, _ := e.Value(); v != 15 {
		t.Errorf("second sample: %v", v)
	}
	// Converges toward a constant stream.
	for i := 0; i < 50; i++ {
		e.Observe(8)
	}
	if v, _ := e.Value(); math.Abs(v-8) > 1e-3 {
		t.Errorf("converged value: %v", v)
	}
}
