// Command spotdc-experiments regenerates the SpotDC paper's tables and
// figures. Run with no arguments to list experiment IDs, with IDs to run a
// subset, or with -all for the full suite.
//
// Usage:
//
//	spotdc-experiments [-seed N] [-long-slots N] [-scale-slots N] [-all] \
//	    [-workers N] [-emergency] \
//	    [-cpuprofile f] [-memprofile f] [-trace f] [-pprof-addr host:port] \
//	    [id ...]
//
// Parallelism: -workers caps the scenario fan-out pool each experiment uses
// for its independent simulation runs (0 = GOMAXPROCS, 1 = serial). Each
// simulation runs on one goroutine, so the same seed produces the same
// reports at any worker count.
//
// Profiling: -cpuprofile/-memprofile/-trace write pprof / execution-trace
// files covering the experiment runs; -pprof-addr serves net/http/pprof for
// live inspection (go tool pprof http://host:port/debug/pprof/profile).
//
// Observability: -metrics-addr serves Prometheus text metrics on
// GET /metrics (plus /healthz) aggregating every simulation the experiments
// run — market clearings, operator slot outcomes, simulated slots, and
// worker-pool occupancy; -pprof additionally mounts /debug/pprof/* on that
// mux. -trace-spans FILE records slot-lifecycle trace spans (root slot span
// with predict/clear/audit children) as JSON lines, head-sampled every
// -trace-sample slots; convert with spotdc-spans for Perfetto.
// Instrumentation never changes report contents.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"spotdc/internal/experiments"
	"spotdc/internal/metrics"
	"spotdc/internal/otrace"
	"spotdc/internal/par"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "spotdc-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "seed for all synthetic traces")
	longSlots := flag.Int("long-slots", 0, "slots for extended runs (default 21600 = 30 days of 2-minute slots)")
	scaleSlots := flag.Int("scale-slots", 0, "slots for the fig18 scaling runs (default 720)")
	all := flag.Bool("all", false, "run every experiment")
	outDir := flag.String("out", "", "also write each report to <dir>/<id>.txt")
	workers := flag.Int("workers", 0, "scenario fan-out workers (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (e.g. localhost:9090)")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof/* on -metrics-addr (own mux, unlike -pprof-addr's DefaultServeMux)")
	traceSpans := flag.String("trace-spans", "", "record slot-lifecycle trace spans as JSON lines to this file (convert with spotdc-spans)")
	traceSample := flag.Int("trace-sample", 64, "head-sample every Nth slot's trace (1 = all)")
	auditRuns := flag.Bool("audit", false, "re-verify clearing invariants and reconcile the books on every simulation (fails the run on any violation)")
	emergency := flag.Bool("emergency", false, "run the ext-emergency experiment (shorthand for the ext-emergency ID)")
	flag.Parse()

	opt := experiments.Options{
		Seed: *seed, LongSlots: *longSlots, ScaleSlots: *scaleSlots,
		Workers: *workers, Audit: *auditRuns,
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		par.EnableMetrics(reg)
		opt.Registry = reg
	}
	// -trace-spans: one shared tracer across every simulation the
	// experiments run; the default -trace-sample 64 keeps the journal small
	// over month-long horizons (21600 slots × many scenarios).
	if *traceSpans != "" {
		f, err := os.Create(*traceSpans)
		if err != nil {
			return err
		}
		defer f.Close()
		var tm *otrace.TracerMetrics
		if reg != nil {
			tm = otrace.NewTracerMetrics(reg)
		}
		opt.Tracer = otrace.NewTracer(otrace.Options{
			SampleEvery: *traceSample,
			Journal:     f,
			Metrics:     tm,
		})
		fmt.Fprintf(os.Stderr, "spotdc-experiments: tracing slot spans to %s (sample every %d)\n", *traceSpans, *traceSample)
	}
	if *metricsAddr != "" {
		muxOpts := metrics.MuxOptions{Pprof: *pprofOn}
		if opt.Tracer != nil {
			muxOpts.Extra = map[string]http.Handler{"/debug/traces": otrace.TraceHandler(opt.Tracer)}
		}
		bound, shutdown, err := metrics.ServeOpts(*metricsAddr, reg, muxOpts)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "spotdc-experiments: serving metrics on http://%s/metrics\n", bound)
	}
	ids := flag.Args()
	if *emergency && !*all {
		ids = append(ids, "ext-emergency")
	}
	if !*all && len(ids) == 0 {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("  %-8s %s\n", id, title)
		}
		return nil
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "spotdc-experiments: pprof server: %v\n", err)
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spotdc-experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spotdc-experiments: %v\n", err)
			}
		}()
	}

	var reports []*experiments.Report
	if *all {
		// The whole suite: experiments run concurrently on the -workers
		// pool, reports come back in sorted-ID order.
		reps, err := experiments.RunAll(opt)
		if err != nil {
			return err
		}
		reports = reps
	} else {
		for _, id := range ids {
			rep, err := experiments.Run(id, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			reports = append(reports, rep)
		}
	}
	for _, rep := range reports {
		if err := rep.Fprint(os.Stdout); err != nil {
			return err
		}
		if *outDir != "" {
			if err := writeReport(*outDir, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeReport(dir string, rep *experiments.Report) error {
	f, err := os.Create(filepath.Join(dir, rep.ID+".txt"))
	if err != nil {
		return err
	}
	if err := rep.Fprint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
