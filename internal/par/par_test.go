package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"spotdc/internal/metrics"
)

// enableTestMetrics installs the pool metrics on a fresh registry for the
// duration of the test.
func enableTestMetrics(t *testing.T) *metrics.Registry {
	t.Helper()
	r := metrics.NewRegistry()
	EnableMetrics(r)
	t.Cleanup(func() { pool.Store(nil) })
	return r
}

// TestWorkersResolution: a worker count <= 0 resolves to GOMAXPROCS, any
// other count is taken as given (capped at n). The live-worker gauge, read
// from inside an item, shows the pool size a dispatch actually started.
func TestWorkersResolution(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	r := enableTestMetrics(t)

	for _, c := range []struct{ workers, n, want int }{
		{0, 100, 4}, {-3, 100, 4}, {7, 100, 7}, {7, 3, 3},
	} {
		var seen atomic.Int64
		if err := ForErr(c.workers, c.n, func(int) error {
			v, _ := r.Value("spotdc_par_active_workers")
			seen.Store(int64(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := int(seen.Load()); got != c.want {
			t.Errorf("workers=%d n=%d: pool of %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestForCoversEveryIndexOnce is the pool's core contract: fn(i) runs
// exactly once for every i in [0, n), at any worker count, including the
// inline paths (workers <= 1, n <= 1) and workers > n.
func TestForCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, workers := range []int{0, 1, 2, 4, 100} {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			counts := make([]atomic.Int32, n)
			if err := ForErr(workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForInlineOnCallerGoroutine(t *testing.T) {
	// workers=1 must not spawn goroutines: goroutine-local state (here a
	// plain non-atomic variable) stays safe.
	sum := 0
	if err := ForErr(1, 100, func(i int) error {
		sum += i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 4950 {
		t.Errorf("sum = %d, want 4950", sum)
	}
}

// TestForErrLowestIndexWins: the reported error must be the lowest-indexed
// failure regardless of scheduling, and every item still runs (no
// cancellation).
func TestForErrLowestIndexWins(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForErr(workers, 50, func(i int) error {
			ran.Add(1)
			if i%10 == 7 { // fails at 7, 17, 27, 37, 47
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7" {
			t.Errorf("workers=%d: err = %v, want item 7", workers, err)
		}
		if ran.Load() != 50 {
			t.Errorf("workers=%d: ran %d of 50 items", workers, ran.Load())
		}
	}
}

func TestForErrNilOnSuccess(t *testing.T) {
	if err := ForErr(4, 20, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	want := errors.New("only")
	if err := ForErr(4, 1, func(int) error { return want }); !errors.Is(err, want) {
		t.Errorf("single-item error not propagated: %v", err)
	}
}

// TestEnableMetricsCountsDispatches: a parallel dispatch counts once with
// all of its items and releases its workers from the occupancy gauge; an
// inline (workers 1) run counts nothing.
func TestEnableMetricsCountsDispatches(t *testing.T) {
	r := enableTestMetrics(t)
	value := func(name string) float64 {
		t.Helper()
		v, ok := r.Value(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return v
	}

	const n = 25
	if err := ForErr(2, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := value("spotdc_par_dispatches_total"); got != 1 {
		t.Errorf("dispatches = %v, want 1", got)
	}
	if got := value("spotdc_par_items_total"); got != n {
		t.Errorf("items = %v, want %d", got, n)
	}
	if got := value("spotdc_par_active_workers"); got != 0 {
		t.Errorf("active workers = %v after the dispatch, want 0", got)
	}

	if err := ForErr(1, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d, i := value("spotdc_par_dispatches_total"), value("spotdc_par_items_total"); d != 1 || i != n {
		t.Errorf("inline run counted: dispatches %v, items %v", d, i)
	}
}
