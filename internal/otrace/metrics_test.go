package otrace

import (
	"strings"
	"testing"

	"spotdc/internal/metrics"
)

// failWriter fails every write, to drive otrace_export_errors_total.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, &writeErr{}
}

type writeErr struct{}

func (*writeErr) Error() string { return "injected journal failure" }

// TestMetricsExpositionRoundTrip drives every otrace_* family through the
// registry's text exposition: started/sampled on publish, both drop
// reasons, ring occupancy tracking the recorder, and journal write
// failures counting as export errors (spans still reach the ring).
func TestMetricsExpositionRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(Options{
		SampleEvery:     2,
		Seed:            9,
		SlowPercentile:  -1,
		MaxActiveTraces: 1,
		Journal:         failWriter{},
		Metrics:         NewTracerMetrics(reg),
	})

	// Slot 0 samples: root + child publish (2 sampled, 2 export errors).
	r0 := tr.StartRoot("slot", 0)
	tr.StartChild("clear", r0).End()
	r0.End()
	// Slot 1 heads out: root + child drop unsampled.
	r1 := tr.StartRoot("slot", 1)
	tr.StartChild("clear", r1).End()
	r1.End()
	// A deferred trace buffers its finished child; with MaxActiveTraces 1,
	// opening a second trace evicts it and drops the pending span.
	p0 := tr.StartProvisionalRoot("tenant_slot", 1)
	tr.StartChild("submit", p0).End()
	p1 := tr.StartProvisionalRoot("tenant_slot", 3)
	_, _ = p0, p1

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		"otrace_spans_started_total 7",
		"otrace_spans_sampled_total 2",
		`otrace_spans_dropped_total{reason="unsampled"} 2`,
		`otrace_spans_dropped_total{reason="evicted"} 1`,
		"otrace_ring_occupancy 2",
		"otrace_export_errors_total 2",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if got := ringOccupancy(tr); got != 2 {
		t.Errorf("ring occupancy = %d, want 2 (exposition gauge must match)", got)
	}
}

// TestTracerMetricsNilSafe pins that a tracer without metrics — and bare
// nil handles — never panic on the span path.
func TestTracerMetricsNilSafe(t *testing.T) {
	var m *TracerMetrics
	m.started()
	m.sampled(3)
	m.droppedN(dropEvicted, 2)
	m.droppedN(dropUnsampled, 0)
	m.exportError()
}
