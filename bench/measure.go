package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"spotdc/internal/otrace"
	"spotdc/internal/stats"
)

// metric is one reported value; the JSON form is what the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// window is one measured run of consecutive slots on a warmed-up stack.
type window struct {
	samples []slotSample
	block   int           // workload.block
	wall    time.Duration // first slot's start → last slot's end
	// blockCPU[k] is the process's user+sys CPU time when k blocks of
	// blockSlots slots had run, the last of them possibly a short one.
	blockCPU []time.Duration
	before   snapshot
	after    snapshot
	// failed counts tenant-slot operations; rejected and noPrice break out
	// the ones a tenant saw as an error reply or as a missing price.
	failed, rejected, noPrice int
}

// snapshot holds the cumulative counters read at a window's edges.
type snapshot struct {
	mem                  runtime.MemStats
	bidBytes, priceBytes int64
	walBytes, walFsyncs  float64
	walSnapshots         float64
	journalBytes         int64
	degraded             int
	violations           int64
	walErrored           int
}

func (s *stack) snapshot() snapshot {
	var sn snapshot
	runtime.ReadMemStats(&sn.mem)
	sn.bidBytes, sn.priceBytes = s.wire.written.Load(), s.wire.received.Load()
	sn.walBytes = s.counter("spotdc_wal_append_bytes_total")
	sn.walFsyncs = s.counter("spotdc_wal_fsyncs_total")
	sn.walSnapshots = s.counter("spotdc_wal_snapshots_total")
	if s.journalFile != nil {
		sn.journalBytes = s.journalFile.written
	}
	sn.degraded = s.loop.SlotErrors()
	sn.violations = s.auditor.Violations()
	if s.wlog != nil && s.wlog.Err() != nil {
		sn.walErrored = 1
	}
	return sn
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp builds a stack and runs the workload's warm-up slots. A failed
// warm-up operation is an error: nothing measured on such a stack would
// mean anything.
func setUp(w workload, in *inputs, dir string, tracer *otrace.Tracer) (*stack, error) {
	s, err := buildStack(w, in, dir, tracer)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warmup; i++ {
		if sm := s.runSlot(); sm.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %s", s.firstFailure)
		}
	}
	return s, nil
}

// measure runs slots for d, or for limit slots if limit is positive and
// comes first, and stops early after three consecutive failed slots, so a
// broken market cannot run the 5 s operation timeout hundreds of times.
func (s *stack) measure(d time.Duration, limit int) (*window, error) {
	if limit <= 0 {
		limit = math.MaxInt
	}
	win := &window{samples: make([]slotSample, 0, 1<<14), block: s.w.block}
	win.before = s.snapshot()
	win.blockCPU = append(win.blockCPU, cpuTime())
	start := time.Now()
	consecutive := 0
	for time.Since(start) < d && len(win.samples) < limit && consecutive < 3 {
		sm := s.runSlot()
		win.samples = append(win.samples, sm)
		if len(win.samples)%blockSlots == 0 {
			win.blockCPU = append(win.blockCPU, cpuTime())
		}
		win.failed += sm.failed
		win.rejected += sm.rejected
		win.noPrice += sm.noPrice
		if sm.failed > 0 {
			consecutive++
		} else {
			consecutive = 0
		}
	}
	if len(win.samples) == 0 {
		return nil, fmt.Errorf("no slot ran in a window of %v", d)
	}
	win.wall = win.samples[len(win.samples)-1].end.Sub(win.samples[0].start)
	if len(win.samples)%blockSlots != 0 {
		win.blockCPU = append(win.blockCPU, cpuTime())
	}
	win.after = s.snapshot()
	return win, nil
}

func (w *window) attempted() int { return tenantCount * len(w.samples) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// series extracts one per-slot duration in ms.
func (w *window) series(f func(slotSample) time.Duration) []float64 {
	xs := make([]float64, len(w.samples))
	for i, sm := range w.samples {
		xs[i] = ms(f(sm))
	}
	return xs
}

func turnaround(sm slotSample) time.Duration { return sm.t2.Sub(sm.t1) }
func ingest(sm slotSample) time.Duration     { return sm.t1.Sub(sm.t0) }
func cycle(sm slotSample) time.Duration      { return sm.end.Sub(sm.start) }

// blockSlots is the unit of the blocks a window is cut into for the metrics
// that need many slots for one value (a tail, CPU time). It is the prod
// stacks' snapshot cadence and the harness's feasibility-check cadence, so a
// block of any multiple holds each the same number of times.
const blockSlots = 64

// blockMedian is the median over the window's full blocks (workload.block
// slots each) of f(first slot, one past the last slot); a window shorter
// than one block is one block. The shared host slows down for seconds at a
// time: a median over blocks leaves such an episode out, as a median over
// slots does, where one figure for the whole window takes all of it in
// (README "Medians over the window").
func (w *window) blockMedian(f func(lo, hi int) float64) float64 {
	n := len(w.samples)
	var xs []float64
	for lo := 0; lo+w.block <= n; lo += w.block {
		xs = append(xs, f(lo, lo+w.block))
	}
	if xs == nil {
		xs = []float64{f(0, n)}
	}
	return percentile(xs, 50)
}

// endToEnd reports the seven user-visible metrics of an untraced window.
// Every timing is a median, over slots or over blocks of slots.
func endToEnd(win *window, setup time.Duration) metricSet {
	m := metricSet{}
	turn := win.series(turnaround)
	m.set("setup_s", setup.Seconds(), "s")
	m.set("slot_turnaround_p50_ms", percentile(turn, 50), "ms")
	m.set("slot_turnaround_p95_ms", win.blockMedian(func(lo, hi int) float64 {
		return percentile(turn[lo:hi], 95)
	}), "ms")
	m.set("bid_ingest_p50_ms", percentile(win.series(ingest), 50), "ms")
	m.set("slots_per_s", 1000/percentile(win.series(cycle), 50), "1/s")
	m.set("cpu_ms_per_slot", win.blockMedian(func(lo, hi int) float64 {
		last := (hi + blockSlots - 1) / blockSlots
		return ms(win.blockCPU[last]-win.blockCPU[lo/blockSlots]) / float64(hi-lo)
	}), "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m
}

// stageNames are the market loop's direct children of the slot root span,
// in slot order.
var stageNames = []string{"bid_drain", "predict", "clear", "audit", "emergencies", "wal_commit", "broadcast"}

// slotSpans gathers one slot's spans from the tracer's ring.
type slotSpans struct {
	root  *otrace.SpanRecord
	stage map[string]*otrace.SpanRecord
	sends []*otrace.SpanRecord
}

func spanMS(r *otrace.SpanRecord) float64 {
	if r == nil {
		return 0
	}
	return float64(r.DurMicros) / 1000
}

// perLayer reports the single-layer metrics: timings from the traced
// window's spans and the harness's own timers, counts from the untraced
// window (so tracing does not inflate them), and the tracing overhead as
// the ratio of the two windows' turnaround.
func perLayer(untraced, traced *window, spans []otrace.SpanRecord) metricSet {
	m := metricSet{}
	bySlot := make(map[int]*slotSpans, len(traced.samples))
	for i := range spans {
		r := &spans[i]
		ss := bySlot[r.Slot]
		if ss == nil {
			ss = &slotSpans{stage: map[string]*otrace.SpanRecord{}}
			bySlot[r.Slot] = ss
		}
		switch {
		case r.Root():
			ss.root = r
		case r.Name == "send":
			if r.Attrs["type"] == "price" {
				ss.sends = append(ss.sends, r)
			}
		default:
			ss.stage[r.Name] = r
		}
	}
	stage := map[string][]float64{}
	var sends, deliver, loopSelf, sumRatio, evals, exact []float64
	for _, sm := range traced.samples {
		ss := bySlot[sm.slot]
		if ss == nil || ss.root == nil || ss.stage["broadcast"] == nil {
			continue
		}
		children := 0.0
		for _, name := range stageNames {
			d := spanMS(ss.stage[name])
			stage[name] = append(stage[name], d)
			children += d
		}
		for _, r := range ss.sends {
			sends = append(sends, spanMS(r))
		}
		bc := ss.stage["broadcast"]
		// Span clocks are wall-clock microseconds; so is this difference.
		dl := float64(sm.t2.UnixMicro()-(bc.StartMicros+bc.DurMicros)) / 1000
		deliver = append(deliver, dl)
		loopSelf = append(loopSelf, spanMS(ss.root)-children)
		sumRatio = append(sumRatio, (children+dl)/ms(turnaround(sm)))
		if c := ss.stage["clear"]; c != nil {
			if v, ok := c.Attrs["evaluations"].(float64); ok {
				evals = append(evals, v)
			}
			if c.Attrs["engine"] == "exact" {
				exact = append(exact, 1)
			} else {
				exact = append(exact, 0)
			}
		}
	}
	m.set("proto.submit_p50_ms", percentile(traced.series(func(sm slotSample) time.Duration {
		return (sm.submit[0] + sm.submit[1]) / tenantCount
	}), 50), "ms")
	m.set("proto.ingest_wait_p50_ms", percentile(traced.series(func(sm slotSample) time.Duration {
		return sm.t1.Sub(sm.lastSubmitEnd)
	}), 50), "ms")
	m.set("proto.bid_drain_p50_ms", percentile(stage["bid_drain"], 50), "ms")
	m.set("operator.predict_p50_ms", percentile(stage["predict"], 50), "ms")
	m.set("core.clear_p50_ms", percentile(stage["clear"], 50), "ms")
	m.set("core.clear_p95_ms", percentile(stage["clear"], 95), "ms")
	m.set("core.evaluations_per_clear", stats.Mean(evals), "count")
	m.set("core.engine_exact_ratio", stats.Mean(exact), "ratio")
	m.set("core.audit_p50_ms", percentile(stage["audit"], 50), "ms")
	m.set("operator.emergencies_p50_ms", percentile(stage["emergencies"], 50), "ms")
	m.set("proto.wal_commit_p50_ms", percentile(stage["wal_commit"], 50), "ms")
	m.set("proto.wal_commit_p95_ms", percentile(stage["wal_commit"], 95), "ms")
	m.set("proto.broadcast_p50_ms", percentile(stage["broadcast"], 50), "ms")
	m.set("proto.send_p50_ms", percentile(sends, 50), "ms")
	m.set("proto.send_p95_ms", percentile(sends, 95), "ms")
	m.set("proto.deliver_p50_ms", percentile(deliver, 50), "ms")
	m.set("proto.loop_self_p50_ms", percentile(loopSelf, 50), "ms")
	m.set("stage_sum_ratio", percentile(sumRatio, 50), "ratio")
	m.set("otrace.overhead_ratio",
		percentile(traced.series(turnaround), 50)/percentile(untraced.series(turnaround), 50), "ratio")

	n := float64(len(untraced.samples))
	// The whole window's rate, slow episodes of the host and all: what
	// slots_per_s, a median over slots, leaves out (rare per-slot costs too).
	m.set("harness.window_slots_per_s", n/untraced.wall.Seconds(), "1/s")
	a, b := untraced.before, untraced.after
	m.set("proto.bid_bytes_per_slot", float64(b.bidBytes-a.bidBytes)/n, "B")
	m.set("proto.price_bytes_per_slot", float64(b.priceBytes-a.priceBytes)/n, "B")
	m.set("wal.bytes_per_slot", (b.walBytes-a.walBytes)/n, "B")
	m.set("wal.fsyncs_per_slot", (b.walFsyncs-a.walFsyncs)/n, "count")
	m.set("wal.snapshots", b.walSnapshots-a.walSnapshots, "count")
	m.set("metrics.journal_bytes_per_slot", float64(b.journalBytes-a.journalBytes)/n, "B")
	m.set("runtime.alloc_kb_per_slot", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024/n, "KB")
	m.set("runtime.allocs_per_slot", float64(b.mem.Mallocs-a.mem.Mallocs)/n, "count")
	m.set("runtime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count")
	m.set("runtime.gc_pause_total_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	// Failure counters cover both windows: expect 0 everywhere. Rejections
	// and drops are counted where every workload can see them, at the
	// tenants (an error reply, or no price before the timeout).
	tb, ta := traced.before, traced.after
	m.set("proto.bids_rejected", float64(untraced.rejected+traced.rejected), "count")
	m.set("proto.outbound_drops", float64(untraced.noPrice+traced.noPrice), "count")
	m.set("operator.degraded_slots", float64(b.degraded-a.degraded+ta.degraded-tb.degraded), "count")
	m.set("core.audit_violations", float64(b.violations-a.violations+ta.violations-tb.violations), "count")
	m.set("wal.errors", float64(b.walErrored+ta.walErrored), "count")
	return m
}

// names lists the set's metric names in order.
func (m metricSet) names() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printMetrics lists a metric set by name, one per line, for people.
func printMetrics(m metricSet) {
	for _, name := range m.names() {
		fmt.Printf("  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
