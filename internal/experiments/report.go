// Package experiments regenerates every table and figure of the SpotDC
// paper's evaluation (Section V) from the reproduction's own modules. Each
// experiment is a function returning a Report whose rows mirror what the
// paper plots; cmd/spotdc-experiments and the repository-level benchmarks
// drive them by ID.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"spotdc/internal/metrics"
	"spotdc/internal/otrace"
	"spotdc/internal/par"
)

// Report is a printable experiment result.
type Report struct {
	// ID is the experiment identifier ("fig12", "table1", ...).
	ID string
	// Title describes what the paper's figure/table shows.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, one row per line of the figure/table.
	Rows [][]string
	// Notes carries free-form observations (e.g. headline numbers).
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// F formats a float compactly for report cells.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad+2))
			}
		}
		return b.String()
	}
	if len(r.Header) > 0 {
		if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner is an experiment entry point.
type Runner func(opt Options) (*Report, error)

// Options tunes every experiment; the zero value gives defaults sized so
// the full suite runs in minutes on a laptop.
type Options struct {
	// Seed drives all synthetic traces.
	Seed int64
	// LongSlots is the horizon of the "extended" (paper: one-year)
	// simulations; default 21600 two-minute slots (30 days).
	LongSlots int
	// ScaleTenants lists the Fig. 18 tenant counts.
	ScaleTenants []int
	// ScaleSlots is the horizon of the Fig. 18 runs (default 720).
	ScaleSlots int
	// ClearingRacks lists the Fig. 7(b) rack counts.
	ClearingRacks []int
	// Workers caps the scenario fan-out pool each experiment uses for its
	// independent (mode × sweep-point) simulation runs: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the historical serial execution.
	// Result ordering is deterministic regardless of the setting — every
	// runner writes results by index, never by completion order.
	Workers int
	// Registry, if non-nil, instruments every simulation an experiment
	// runs on one shared metrics registry (registration is idempotent, so
	// the concurrent suite fan-out aggregates onto the same families).
	// Wired by cmd/spotdc-experiments -metrics-addr; instrumentation never
	// changes report contents.
	Registry *metrics.Registry
	// Audit attaches the conservation auditor to every simulation an
	// experiment runs (sim.RunOptions.Audit): clearing invariants are
	// re-verified inline and the books reconciled after each run, failing
	// the experiment on any violation. Wired by cmd/spotdc-experiments
	// -audit; auditing never changes report contents.
	Audit bool
	// Tracer, if non-nil, traces every simulation an experiment runs
	// (sim.RunOptions.Tracer): one root span per slot with the operator's
	// predict/clear/audit children. The tracer is concurrency-safe, so the
	// scenario fan-out shares it — spans from concurrent runs interleave in
	// the ring/journal but each keeps its own trace ID. Wired by
	// cmd/spotdc-experiments -trace-spans.
	Tracer *otrace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.LongSlots == 0 {
		o.LongSlots = 21600
	}
	if len(o.ScaleTenants) == 0 {
		o.ScaleTenants = []int{8, 50, 100, 500, 1000}
	}
	if o.ScaleSlots == 0 {
		o.ScaleSlots = 720
	}
	if len(o.ClearingRacks) == 0 {
		o.ClearingRacks = []int{1500, 3000, 6000, 9000, 12000, 15000}
	}
	return o
}

// registry maps experiment IDs to runners.
var registry = map[string]struct {
	runner Runner
	title  string
}{}

func register(id, title string, r Runner) {
	registry[id] = struct {
		runner Runner
		title  string
	}{r, title}
}

// IDs returns every registered experiment ID in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's description.
func Title(id string) (string, bool) {
	e, ok := registry[id]
	return e.title, ok
}

// Run executes one experiment by ID.
func Run(id string, opt Options) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e.runner(opt.withDefaults())
}

// RunAll executes every registered experiment and returns the reports in
// sorted-ID order. The experiments themselves run concurrently on a pool of
// opt.Workers goroutines (0 ⇒ GOMAXPROCS); to keep the total concurrency
// bounded by that single knob, each experiment's own scenario fan-out is
// forced serial here (Run on a single ID is where the intra-experiment
// fan-out applies). The returned slice is ordered by IDs(), independent of
// completion order, so the same seed always yields the same report sequence.
//
// Note that fig7b reports wall-clock clearing times; under a concurrent
// suite those timings share cores with other experiments and are indicative
// rather than benchmark-grade (use scripts/bench.sh for the latter).
func RunAll(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	inner := opt
	inner.Workers = 1
	ids := IDs()
	reports := make([]*Report, len(ids))
	err := par.ForErr(opt.Workers, len(ids), func(i int) error {
		rep, e := registry[ids[i]].runner(inner)
		if e != nil {
			return fmt.Errorf("%s: %w", ids[i], e)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
