package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value() = %d, want 5", got)
	}
	// Idempotent re-registration returns the same handle.
	if c2 := r.Counter("test_total", "a counter"); c2 != c {
		t.Error("re-registration returned a different handle")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(3.25)
	g.Add(-1.25)
	if got := g.Value(); got != 2 {
		t.Errorf("Value() = %v, want 2", got)
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Errorf("Value() = %v, want +Inf", g.Value())
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Errorf("Value() = %v, want 8000 (CAS loop lost updates)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Errorf("Sum() = %v, want 106", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Samples) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	// Bounds 1,2,4 (+Inf): 0.5 and 1 land in le=1 (bounds inclusive),
	// 1.5 in le=2, 3 in le=4, 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	got := snap[0].Samples[0].BucketCounts
	if len(got) != len(want) {
		t.Fatalf("bucket counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	// The "metrics off" path: every handle method must be callable on nil.
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles reported non-zero values")
	}
	var j *Journal
	if err := j.Append(SlotEvent{}); err != nil {
		t.Errorf("nil journal Append = %v", err)
	}
	if j.Events() != 0 || j.Err() != nil {
		t.Error("nil journal reported state")
	}
}

func TestVecChildrenPreResolved(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_labeled_total", "labeled", "engine")
	a := v.With("scan")
	b := v.With("exact")
	a2 := v.With("scan")
	if a == b {
		t.Error("distinct label values shared a child")
	}
	if a != a2 {
		t.Error("same label values resolved to different children")
	}
	a.Add(2)
	b.Inc()
	if got, ok := r.Value("test_labeled_total", "scan"); !ok || got != 2 {
		t.Errorf(`Value(scan) = %v,%v want 2,true`, got, ok)
	}
	if got, ok := r.Value("test_labeled_total", "exact"); !ok || got != 1 {
		t.Errorf(`Value(exact) = %v,%v want 1,true`, got, ok)
	}
	if _, ok := r.Value("test_labeled_total", "missing"); ok {
		t.Error("Value found a child that was never resolved")
	}
}

func TestConflictingReRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "a counter")
	assertPanics(t, "kind conflict", func() { r.Gauge("test_total", "now a gauge") })
	r.CounterVec("test_vec_total", "labeled", "a")
	assertPanics(t, "label conflict", func() { r.CounterVec("test_vec_total", "labeled", "b") })
	r.Histogram("test_hist", "h", []float64{1, 2})
	assertPanics(t, "bounds conflict", func() { r.Histogram("test_hist", "h", []float64{1, 3}) })
	assertPanics(t, "invalid name", func() { r.Counter("0bad name", "x") })
	assertPanics(t, "invalid label", func() { r.CounterVec("test_ok_total", "x", "bad-label") })
	assertPanics(t, "unsorted bounds", func() { r.Histogram("test_hist2", "h", []float64{2, 1}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Errorf("ExpBuckets[%d] = %v, want %v", i, exp[i], want[i])
		}
	}
	assertPanics(t, "ExpBuckets misuse", func() { ExpBuckets(0, 2, 3) })
}
