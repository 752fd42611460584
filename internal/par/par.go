// Package par provides the bounded worker pool behind the experiment
// scenario fan-out (internal/experiments): every independent simulation an
// experiment needs runs as one work item.
//
// The contract every caller relies on: work item i is identified by its
// index, callers write results into slot i of a pre-sized slice, and the
// pool imposes no ordering between items — so a parallel run is
// bit-identical to a serial run as long as the per-index work is
// independent. A worker count of 0 (or less) resolves to GOMAXPROCS, and a
// resolved count of 1 (or a single item) runs inline on the calling
// goroutine with no scheduling overhead at all.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spotdc/internal/metrics"
)

// poolMetrics is the package's optional instrumentation, installed once via
// EnableMetrics and read with one atomic pointer load per parallel dispatch.
// It deliberately observes only pool-level events (dispatches, items,
// worker occupancy) — never per-item work — so instrumentation cannot
// perturb the fan-out's bit-identical determinism contract, and inline
// (workers ≤ 1) runs stay untouched.
type poolMetrics struct {
	dispatches *metrics.Counter
	items      *metrics.Counter
	active     *metrics.Gauge
}

var pool atomic.Pointer[poolMetrics]

// EnableMetrics registers the worker-pool families on r and installs them
// process-wide (the pool is shared package state, so its instrumentation is
// too). Subsequent parallel ForErr dispatches count dispatches and items and
// track live worker occupancy on spotdc_par_active_workers.
func EnableMetrics(r *metrics.Registry) {
	pool.Store(&poolMetrics{
		dispatches: r.Counter("spotdc_par_dispatches_total",
			"Parallel ForErr dispatches (inline runs with one worker are not counted)."),
		items: r.Counter("spotdc_par_items_total",
			"Work items executed by parallel ForErr dispatches."),
		active: r.Gauge("spotdc_par_active_workers",
			"Currently live worker goroutines across all parallel ForErr dispatches."),
	})
}

// ForErr runs fn(i) for every i in [0, n) on a pool of at most workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0)). Indices are handed
// out dynamically through an atomic counter, so uneven item costs balance
// across workers. Every call runs to completion (no cancellation — items
// are independent scenarios whose partial results the caller discards on
// error anyway), and ForErr returns the error of the lowest-indexed failing
// call, so the reported error is deterministic regardless of scheduling.
//
// A resolved worker count of 1, or n <= 1, runs inline on the caller's
// goroutine.
func ForErr(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		mu      sync.Mutex
		firstI  = n
		firstEr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstI {
			firstI, firstEr = i, err
		}
		mu.Unlock()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				record(i, err)
			}
		}
		return firstEr
	}
	pm := pool.Load()
	if pm != nil {
		pm.dispatches.Inc()
		pm.items.Add(uint64(n))
		pm.active.Add(float64(workers))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if pm != nil {
		pm.active.Add(-float64(workers))
	}
	return firstEr
}
