// Package metrics is SpotDC's zero-dependency instrumentation subsystem:
// counters, gauges and fixed-bucket histograms updated through atomics via
// pre-registered handles, a Registry with a deterministic snapshot API, and
// Prometheus text-format exposition with an HTTP scrape surface.
//
// The design constraint that shaped the package is the PR 3 allocation
// budget on the market-clearing hot loop: a steady-state Clear performs
// zero heap allocations (grid scan) even with instrumentation enabled. Two
// rules keep that true:
//
//  1. Handles, not maps. Every metric is registered once at setup time and
//     observed through the returned *Counter / *Gauge / *Histogram pointer.
//     The observe path is a couple of atomic operations — no name lookup,
//     no label hashing, no interface boxing, no allocation.
//  2. Labels resolve at registration. A labeled family (Vec) hands out its
//     child handles via With(...) during wiring; the hot path holds the
//     already-resolved child and never touches the family again.
//
// All handle methods are nil-receiver safe: a component whose metrics were
// never wired calls the same code with nil handles and pays one predictable
// branch, so "metrics off" needs no separate code path.
package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// unusable; obtain counters from a Registry so they appear in exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increments by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down, stored as IEEE-754
// bits in a single atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta (CAS loop). Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Bucket upper bounds are
// frozen at registration; Observe is a short linear scan over them plus
// three atomic updates — no allocation, ever. Exposition follows the
// Prometheus convention: cumulative _bucket{le="..."} series, _sum, _count.
type Histogram struct {
	bounds  []float64 // sorted ascending upper bounds; implicit +Inf last
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     Gauge
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor: start, start·factor, start·factor², …
// It panics on non-positive start, factor ≤ 1, or n < 1 (setup-time misuse).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
