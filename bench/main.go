// Command bench is the slot-budget benchmark (ISSUE 14): an in-process
// networked spot-capacity market driven in a closed loop by two tenant
// connections, reporting seven end-to-end metrics per workload and, from a
// separate traced run, the per-layer metrics behind them. See README.md.
//
// One invocation is one run of one workload:
//
//	bench --workload paper15k-bare --seed 1 --seconds 30 --trace 0
//
// prints the metrics by name and, as its last line, the JSON object the
// benchmark driver reads. -all runs every workload once with its checks;
// -selfcheck measures the benchmark's own noise against BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spotdc/internal/otrace"
)

const (
	// specPath is the benchmark definition -selfcheck reads its bounds from.
	specPath = "BENCHMARK.json"
	// checksumSlots is the slot prefix the printed checksum covers; every
	// real run gets further than this.
	checksumSlots = 64
	// spansPerSlot bounds what one slot publishes (root, seven stages, one
	// send per tenant); the traced window stops before the ring wraps.
	spansPerSlot = 8 + tenantCount
	ringCapacity = 1 << 15
	// A traced invocation splits its --seconds between an untraced window
	// (counts, and the base of the overhead ratio), the traced window, and
	// the outside probes.
	untracedShare = 0.3
	tracedShare   = 0.4
)

// processStart is where setup_s starts counting: package initialisation, the
// first thing this program does.
var processStart = time.Now()

// result is the last line of a run's standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// checksum covers the first checksumSlots slots' prices and totals; it
	// is printed, not part of the result line.
	checksum uint64
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "generator seed")
		seconds   = flag.Int("seconds", 30, "length of the measured window in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		state     = flag.String("state", ".bench_state", "directory for WAL and journal files (removed on exit)")
		all       = flag.Bool("all", false, "run every workload, traced and untraced, with all checks")
		selfcheck = flag.Bool("selfcheck", false, "measure run-to-run noise against the bounds in "+specPath)
		runs      = flag.Int("runs", 5, "runs per workload in each of -selfcheck's two sets")
	)
	flag.Parse()
	var err error
	switch {
	case *all:
		err = runAll(*seed, *seconds, *state)
	case *selfcheck:
		err = runSelfcheck(*runs, *seconds, *state)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var res result
		if res, err = runOnce(w, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *state); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce is one run of one workload in this process. An error means the
// run could not be carried out; operations that failed, and checks that did
// not hold, come back in the result.
func runOnce(w workload, seed int64, d time.Duration, traced bool, stateRoot string) (result, error) {
	// Two tenant connections and two Ps, whatever the machine has.
	runtime.GOMAXPROCS(2)
	in, err := generate(seed, w.racks)
	if err != nil {
		return result{}, err
	}
	root, err := filepath.Abs(filepath.Join(stateRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	fmt.Printf("workload %s seed %d: %d racks, %d tenant connections, GOMAXPROCS %d, state under %s\n",
		w.name, seed, w.racks, tenantCount, runtime.GOMAXPROCS(0), root)
	if traced {
		return runTraced(w, in, d, 0, root)
	}
	return runUntraced(w, in, d, 0, root)
}

// runUntraced sets the market up once and measures one window of at most d,
// or limit slots if limit is positive. setup_s counts from processStart, so
// it includes process start and input generation.
func runUntraced(w workload, in *inputs, d time.Duration, limit int, root string) (result, error) {
	s, err := setUp(w, in, root, nil)
	if err != nil {
		return result{}, err
	}
	setup := time.Since(processStart)
	win, err := s.measure(d, limit)
	if err != nil {
		s.close()
		return result{}, err
	}
	res := finish(s, win)
	res.Metrics = endToEnd(win, setup)
	printMetrics(res.Metrics)
	return res, nil
}

// finish applies the end-of-run checks, closes the stack and prints the
// operation counts and checksum of one window.
func finish(s *stack, win *window) result {
	res := result{Correct: true, Attempted: win.attempted(), Failed: win.failed, checksum: s.checksum(checksumSlots)}
	err := s.verify()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if res.Failed > 0 {
		res.Correct = false
		fmt.Printf("FAILED %d of %d operations; first: %s\n", res.Failed, res.Attempted, s.firstFailure)
	}
	if err != nil {
		res.Correct = false
		fmt.Printf("FAILED checks: %v\n", err)
	}
	fmt.Printf("operations %d attempted, %d failed over %d slots (warm-up %d)\n",
		res.Attempted, res.Failed, s.next, s.w.warmup)
	fmt.Printf("checksum %s first %d slots: %016x\n", s.w.name, min(checksumSlots, s.next), res.checksum)
	return res
}

func runTraced(w workload, in *inputs, d time.Duration, limit int, root string) (result, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(d)) }

	base, err := setUp(w, in, filepath.Join(root, "untraced"), nil)
	if err != nil {
		return result{}, err
	}
	untraced, err := base.measure(share(untracedShare), limit)
	if err != nil {
		base.close()
		return result{}, err
	}
	var run *prodRun
	if w.prod {
		n := float64(len(untraced.samples))
		run = &prodRun{
			dir:         base.dir,
			spotRevenue: base.op.SpotRevenue(),
			slots:       base.next,
			recordBytes: int((untraced.after.walBytes - untraced.before.walBytes) / n),
		}
	}
	res := finish(base, untraced)
	runtime.GC()

	tracer := otrace.NewTracer(otrace.Options{SampleEvery: 1, RingCapacity: ringCapacity, Seed: in.seed})
	ts, err := setUp(w, in, filepath.Join(root, "traced"), tracer)
	if err != nil {
		return result{}, err
	}
	ring := ringCapacity/spansPerSlot - w.warmup
	if limit > 0 {
		ring = min(ring, limit)
	}
	tracedWin, err := ts.measure(share(tracedShare), ring)
	if err != nil {
		ts.close()
		return result{}, err
	}
	tres := finish(ts, tracedWin)
	res.Correct = res.Correct && tres.Correct
	if tres.checksum != res.checksum {
		res.Correct = false
		fmt.Printf("FAILED: the traced market cleared differently from the untraced one\n")
	}
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Metrics = perLayer(untraced, tracedWin, tracer.Snapshot())

	pm, err := probes(w, in, run, root)
	if err != nil {
		res.Correct = false
		fmt.Printf("FAILED probes: %v\n", err)
	}
	for name, v := range pm {
		res.Metrics[name] = v
	}
	printMetrics(res.Metrics)
	return res, nil
}
