// Package stats provides the small statistical toolkit used throughout the
// SpotDC reproduction: empirical CDFs, percentiles, running summaries and
// time series. Everything is deterministic and allocation-conscious so the
// year-long simulations and the 15,000-rack clearing benchmarks stay cheap.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty data.
var ErrEmpty = errors.New("stats: empty data set")

// Neumaier is a compensated (Kahan–Neumaier) summation accumulator: the
// running compensation term recovers the low-order bits a naive += loop
// discards, so totals stay accurate to ~1 ulp of the true sum regardless of
// term count or magnitude spread. Revenue and energy aggregation use it
// everywhere a 15,000-rack run folds tiny per-slot payments into large
// cumulative totals (where naive summation measurably drifts). The zero
// value is an empty sum; Neumaier is a plain value type, cheap to embed.
type Neumaier struct {
	sum, comp float64
}

// Add folds x into the sum.
func (n *Neumaier) Add(x float64) {
	t := n.sum + x
	if math.Abs(n.sum) >= math.Abs(x) {
		n.comp += (n.sum - t) + x
	} else {
		n.comp += (x - t) + n.sum
	}
	n.sum = t
}

// Sum returns the compensated total.
func (n Neumaier) Sum() float64 { return n.sum + n.comp }

// State exposes the accumulator internals (running sum and compensation
// term) for durable checkpointing. Restoring both via NeumaierFromState and
// replaying subsequent Adds in the original order reproduces the exact bit
// pattern an uninterrupted accumulation would have reached.
func (n Neumaier) State() (sum, comp float64) { return n.sum, n.comp }

// NeumaierFromState rebuilds an accumulator from a previously captured
// State(). It is the restore half of the checkpoint contract.
func NeumaierFromState(sum, comp float64) Neumaier { return Neumaier{sum: sum, comp: comp} }

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the Neumaier-compensated sum of xs.
func Sum(xs []float64) float64 {
	var n Neumaier
	for _, x := range xs {
		n.Add(x)
	}
	return n.Sum()
}

// Min returns the minimum of xs. It returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// StdDev returns the population standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the given samples. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X ≤ x), the fraction of samples that are ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample.
func (c *CDF) Quantile(q float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	return percentileSorted(c.sorted, q*100), nil
}

// Summary captures the descriptive statistics the experiment harness prints.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  percentileSorted(sorted, 50),
		P90:  percentileSorted(sorted, 90),
		P99:  percentileSorted(sorted, 99),
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Running accumulates a mean and maximum incrementally without retaining
// samples; used by year-long simulations where storing every slot value for
// every tenant would be wasteful.
type Running struct {
	n         int
	mean, max float64
}

// Observe folds x into the accumulator.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 || x > r.max {
		r.max = x
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
}

// Mean returns the running mean (0 if no observations).
func (r *Running) Mean() float64 { return r.mean }

// Max returns the largest observation (0 if none).
func (r *Running) Max() float64 { return r.max }

// RelDiffs returns the relative slot-to-slot changes |v[i+1]-v[i]| / v[i].
// Slots with v[i]==0 are skipped.
func RelDiffs(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, 0, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] == 0 {
			continue
		}
		out = append(out, math.Abs(xs[i]-xs[i-1])/xs[i-1])
	}
	return out
}

// EWMA is an exponentially weighted moving average, the classic low-cost
// online predictor (used by tenants to anticipate the clearing price from
// realized prices).
type EWMA struct {
	alpha float64
	value float64
	n     int
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weights recent samples more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("stats: EWMA alpha %v outside (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current average and whether any sample was observed.
func (e *EWMA) Value() (float64, bool) { return e.value, e.n > 0 }
