package stats

import (
	"math"
	"testing"
)

// TestNeumaierBeatsNaiveAt15000Racks is the accumulation-drift regression
// behind the audit PR: folding 15,000 small per-rack revenue terms into a
// large cumulative total loses every one of them to rounding under naive
// summation (0.1 is far below one ulp of 1e16), while the compensated
// accumulator recovers the full amount.
func TestNeumaierBeatsNaiveAt15000Racks(t *testing.T) {
	const racks = 15000
	const big = 1e16 // cumulative revenue already on the books
	const tiny = 0.1 // one rack's per-slot payment
	want := big + tiny*racks

	naive := big
	var comp Neumaier
	comp.Add(big)
	for i := 0; i < racks; i++ {
		naive += tiny
		comp.Add(tiny)
	}

	// Naive summation provably fails: the 1500 dollars of rack payments
	// vanish entirely.
	if naiveErr := math.Abs(naive - want); naiveErr < 1 {
		t.Fatalf("naive summation unexpectedly accurate (err %v); regression test is vacuous", naiveErr)
	}
	// Compensated summation holds the total to sub-cent accuracy.
	if compErr := math.Abs(comp.Sum() - want); compErr > 1e-3 {
		t.Errorf("Neumaier sum off by %v (got %v, want %v)", compErr, comp.Sum(), want)
	}
}

// TestNeumaierCancellations checks the classic pathological sequence where
// plain Kahan (non-Neumaier) compensation also fails.
func TestNeumaierCancellations(t *testing.T) {
	var n Neumaier
	for _, x := range []float64{1, 1e100, 1, -1e100} {
		n.Add(x)
	}
	if got := n.Sum(); got != 2 {
		t.Errorf("Sum() = %v, want 2", got)
	}
}

func TestSumMeanCompensated(t *testing.T) {
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 0.1)
	}
	if got, want := Sum(xs), 1e16+1000.0; math.Abs(got-want) > 1e-3 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	if got, want := Mean(xs), (1e16+1000.0)/10001; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if Sum(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty Sum/Mean not zero")
	}
}
