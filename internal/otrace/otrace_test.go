package otrace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spotdc/internal/metrics"
)

// span names used throughout; the market uses the same identifiers.
const (
	rootName  = "slot"
	childName = "clear"
)

func newTestTracer(opts Options) *Tracer {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.SlowPercentile == 0 {
		opts.SlowPercentile = -1 // tests opt in explicitly
	}
	return NewTracer(opts)
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.StartRoot(rootName, 7)
		child := tr.StartChild(childName, root)
		child.SetStr("engine", "exact")
		child.SetInt("evaluations", 12)
		child.SetFloat("price", 0.05)
		child.SetBool("degraded", false)
		child.ForceSample()
		child.End()
		_ = root.Context()
		tr.Adopt(root, SpanContext{Trace: 1, Span: 2, Sampled: true})
		root.End()
		_ = tr.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per run, want 0", allocs)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 4})
	for slot := 0; slot < 8; slot++ {
		root := tr.StartRoot(rootName, slot)
		child := tr.StartChild(childName, root)
		child.End()
		root.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 { // slots 0 and 4, root+child each
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	for _, sp := range spans {
		if sp.Slot != 0 && sp.Slot != 4 {
			t.Errorf("span %s published for unsampled slot %d", sp.Name, sp.Slot)
		}
	}
}

func TestSampleEveryOneSamplesAll(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1})
	for slot := 0; slot < 3; slot++ {
		root := tr.StartRoot(rootName, slot)
		root.End()
	}
	if got := ringOccupancy(tr); got != 3 {
		t.Fatalf("ring occupancy = %d, want 3", got)
	}
}

func TestForceSampleUpgradePublishesBufferedSpans(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1000})
	root := tr.StartRoot(rootName, 1) // 1 % 1000 != 0: unsampled head
	early := tr.StartChild("bid_drain", root)
	early.End() // buffers: decision pending
	if got := ringOccupancy(tr); got != 0 {
		t.Fatalf("buffered span published early: ring=%d", got)
	}
	root.ForceSample() // the degraded-slot path
	if got := ringOccupancy(tr); got != 1 {
		t.Fatalf("buffered span not flushed on upgrade: ring=%d", got)
	}
	late := tr.StartChild("wal_commit", root)
	late.End() // decision already sampled: publishes directly
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var rootRec *SpanRecord
	for i := range spans {
		if spans[i].Root() {
			rootRec = &spans[i]
		}
	}
	if rootRec == nil {
		t.Fatal("no root span published")
	}
	for _, sp := range spans {
		if !sp.Root() && sp.Parent != rootRec.Span {
			t.Errorf("span %s parent %s, want %s", sp.Name, sp.Parent, rootRec.Span)
		}
		if sp.Trace != rootRec.Trace {
			t.Errorf("span %s trace %s, want %s", sp.Name, sp.Trace, rootRec.Trace)
		}
	}
}

func TestUnsampledSlotDropsEverything(t *testing.T) {
	reg := metrics.NewRegistry()
	tm := NewTracerMetrics(reg)
	tr := newTestTracer(Options{SampleEvery: 1000, Metrics: tm})
	root := tr.StartRoot(rootName, 3)
	child := tr.StartChild(childName, root)
	child.End()
	root.End()
	if got := ringOccupancy(tr); got != 0 {
		t.Fatalf("unsampled slot published %d spans", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	if !strings.Contains(exp, `otrace_spans_dropped_total{reason="unsampled"} 2`) {
		t.Errorf("exposition missing drop count:\n%s", exp)
	}
	if !strings.Contains(exp, "otrace_spans_started_total 2") {
		t.Errorf("exposition missing started count:\n%s", exp)
	}
}

func TestProvisionalRootAdopt(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1})
	root := tr.StartProvisionalRoot("tenant_slot", 5)
	submit := tr.StartChild("submit", root)
	submit.End()
	// Even at SampleEvery 1 the provisional trace defers: nothing may
	// publish under the provisional ID before adoption.
	if got := ringOccupancy(tr); got != 0 {
		t.Fatalf("provisional trace published %d spans before adoption", got)
	}
	remote := SpanContext{Trace: 0xabcd, Span: 0x1234, Sampled: true}
	tr.Adopt(root, remote)
	await := tr.StartChild("await_price", root)
	await.End()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wantTrace := remote.Trace.String()
	var rootRec SpanRecord
	for _, sp := range spans {
		if sp.Trace != wantTrace {
			t.Errorf("span %s trace %s, want adopted %s", sp.Name, sp.Trace, wantTrace)
		}
		if sp.Name == "tenant_slot" {
			rootRec = sp
		}
	}
	if rootRec.Parent != remote.Span.String() {
		t.Errorf("adopted root parent %s, want remote span %s", rootRec.Parent, remote.Span)
	}
	for _, sp := range spans {
		if sp.Name != "tenant_slot" && sp.Parent != rootRec.Span {
			t.Errorf("child %s parent %s, want root %s", sp.Name, sp.Parent, rootRec.Span)
		}
	}
}

func TestAdoptUnsampledDropsTrace(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1})
	root := tr.StartProvisionalRoot("tenant_slot", 5)
	child := tr.StartChild("submit", root)
	child.End()
	tr.Adopt(root, SpanContext{Trace: 0xabcd, Span: 0x1234, Sampled: false})
	root.End()
	if got := ringOccupancy(tr); got != 0 {
		t.Fatalf("unsampled adopted trace published %d spans", got)
	}
}

func TestProvisionalRootFallsBackToHeadRule(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 2})
	for slot := 0; slot < 2; slot++ { // slot 0 sampled, slot 1 not
		root := tr.StartProvisionalRoot("tenant_slot", slot)
		child := tr.StartChild("submit", root)
		child.End()
		root.End() // no Adopt: local head rule applies at end
	}
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (slot 0 only)", len(spans))
	}
	for _, sp := range spans {
		if sp.Slot != 0 {
			t.Errorf("span %s published for head-unsampled slot %d", sp.Name, sp.Slot)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1, RingCapacity: 8})
	for slot := 0; slot < 20; slot++ {
		tr.StartRoot(rootName, slot).End()
	}
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d, want 8", len(spans))
	}
	for i, sp := range spans {
		if want := 12 + i; sp.Slot != want { // oldest-first, newest 8 kept
			t.Errorf("spans[%d].Slot = %d, want %d", i, sp.Slot, want)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := newTestTracer(Options{SampleEvery: 1, Journal: &buf})
	root := tr.StartRoot(rootName, 9)
	child := tr.StartChild(childName, root)
	child.SetStr("engine", "exact")
	child.SetStr("error", "quote \"q\" and\nnewline\tand ctrl \x01")
	child.SetInt("evaluations", 42)
	child.SetFloat("price", 0.0625)
	child.SetBool("degraded", true)
	child.End()
	root.End()

	spans, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	rec := spans[0] // child ended (and journaled) first
	if rec.Name != childName || rec.Slot != 9 {
		t.Fatalf("child record = %+v", rec)
	}
	if rec.Attrs["engine"] != "exact" {
		t.Errorf("engine attr = %v", rec.Attrs["engine"])
	}
	if rec.Attrs["error"] != "quote \"q\" and\nnewline\tand ctrl \x01" {
		t.Errorf("escaped string attr = %q", rec.Attrs["error"])
	}
	if rec.Attrs["evaluations"] != float64(42) {
		t.Errorf("evaluations attr = %v", rec.Attrs["evaluations"])
	}
	if rec.Attrs["price"] != 0.0625 {
		t.Errorf("price attr = %v", rec.Attrs["price"])
	}
	if rec.Attrs["degraded"] != true {
		t.Errorf("degraded attr = %v", rec.Attrs["degraded"])
	}
	if spans[1].Span != rec.Parent {
		t.Errorf("parentage broken: root span %s, child parent %s", spans[1].Span, rec.Parent)
	}

	// The journal must match the ring's view of the same spans.
	ring := tr.Snapshot()
	if len(ring) != len(spans) {
		t.Fatalf("ring %d spans, journal %d", len(ring), len(spans))
	}
	for i := range ring {
		if ring[i].Span != spans[i].Span || ring[i].Trace != spans[i].Trace {
			t.Errorf("ring[%d] %+v != journal %+v", i, ring[i], spans[i])
		}
	}
}

func TestReadSpansTornTail(t *testing.T) {
	var buf bytes.Buffer
	tr := newTestTracer(Options{SampleEvery: 1, Journal: &buf})
	tr.StartRoot(rootName, 0).End()
	tr.StartRoot(rootName, 1).End()
	whole := buf.Bytes()
	torn := whole[:len(whole)-10] // crash mid-append
	spans, err := ReadSpans(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(spans) != 1 || spans[0].Slot != 0 {
		t.Fatalf("got %+v, want just slot 0", spans)
	}
	// A malformed line mid-journal is a hard error.
	bad := append([]byte(`{"nope`+"\n"), whole...)
	if _, err := ReadSpans(bytes.NewReader(bad)); err == nil {
		t.Fatal("malformed interior line must fail")
	}
}

func TestSlowPercentileUpgrade(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1 << 30, SlowPercentile: 0.9})
	// Prime the window with fast roots (all head-unsampled). Scheduler
	// jitter can make the odd priming root land past the p90 of an
	// all-microsecond window and publish; that's the feature working, so
	// tolerate a few leaks rather than flake under the race detector.
	for slot := 1; slot <= 20; slot++ {
		tr.StartRoot(rootName, slot).End()
	}
	if got := ringOccupancy(tr); got > 4 {
		t.Fatalf("%d of 20 fast roots published, want nearly none", got)
	}
	slow := tr.StartRoot(rootName, 21)
	time.Sleep(30 * time.Millisecond) // orders of magnitude over the window
	slow.End()
	found := false
	for _, sp := range tr.Snapshot() {
		if sp.Slot == 21 {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow root not force-sampled: %+v", tr.Snapshot())
	}
}

func TestEvictionDropsPendingAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	tm := NewTracerMetrics(reg)
	tr := newTestTracer(Options{SampleEvery: 1000, MaxActiveTraces: 2, Metrics: tm})
	if sp := tr.StartChild("orphan", nil); sp != nil {
		t.Fatal("StartChild with nil parent must return nil")
	}
	roots := make([]*Span, 3)
	for i := range roots {
		roots[i] = tr.StartRoot(rootName, i*3+1) // all head-unsampled
		c := tr.StartChild(childName, roots[i])
		c.End() // buffers on the trace state
	}
	// Starting the 3rd root evicted the 1st trace with one pending span.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `otrace_spans_dropped_total{reason="evicted"} 1`) {
		t.Errorf("exposition missing eviction drop:\n%s", buf.String())
	}
	// The evicted trace's root still Ends safely (stateless, unsampled).
	roots[0].End()
	if got := ringOccupancy(tr); got != 0 {
		t.Fatalf("evicted trace published %d spans", got)
	}
}

func TestContextReflectsDecision(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 2})
	sampled := tr.StartRoot(rootName, 0)
	if ctx := sampled.Context(); !ctx.Valid() || !ctx.Sampled {
		t.Errorf("sampled root context = %+v", ctx)
	}
	sampled.End()
	unsampled := tr.StartRoot(rootName, 1)
	if ctx := unsampled.Context(); !ctx.Valid() || ctx.Sampled {
		t.Errorf("unsampled root context = %+v", ctx)
	}
	unsampled.End()
}

func TestStartRemoteFollowsContext(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1})
	// Remote context with no local state: the sampled flag decides.
	sp := tr.StartRemote("send", 4, SpanContext{Trace: 0xbeef, Span: 0xcafe, Sampled: true})
	sp.SetStr("tenant", "Search-1")
	sp.End()
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Trace != TraceID(0xbeef).String() || spans[0].Parent != SpanID(0xcafe).String() {
		t.Fatalf("remote span joined wrong trace: %+v", spans[0])
	}
	drop := tr.StartRemote("send", 4, SpanContext{Trace: 0xbeef, Span: 0xcafe, Sampled: false})
	drop.End()
	if got := ringOccupancy(tr); got != 1 {
		t.Fatalf("unsampled remote span published: ring=%d", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := newTestTracer(Options{SampleEvery: 1})
	root := tr.StartRoot(rootName, 2)
	child := tr.StartChild(childName, root)
	child.SetStr("engine", "scan")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("produced trace fails own validation: %v", err)
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":0,"pid":1,"tid":1,"cat":"x"}],"displayTimeUnit":"ms"}`)); err == nil {
		t.Fatal("empty-name event must fail validation")
	}
	if err := ValidateChromeTrace([]byte(`{"displayTimeUnit":"ms"}`)); err == nil {
		t.Fatal("missing traceEvents must fail validation")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sc := range []SpanContext{
		{Trace: 1, Span: 2, Sampled: false},
		{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef, Sampled: true},
	} {
		s := FormatTraceparent(sc)
		if len(s) != traceparentLen {
			t.Fatalf("len(%q) = %d", s, len(s))
		}
		got, err := ParseTraceparent(s)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", s, err)
		}
		if got != sc {
			t.Fatalf("round trip %+v != %+v", got, sc)
		}
	}
	if got := FormatTraceparent(SpanContext{}); got != "" {
		t.Errorf("invalid context formats as %q, want empty", got)
	}
	for _, bad := range []string{
		"", "01-x", strings.Repeat("0", traceparentLen),
		"00-0000000000000001-0000000000000002-01", // W3C version: 128-bit IDs, not ours
		"01-0000000000000000-0000000000000002-01", // zero trace id
		"01-0000000000000001-0000000000000002+01", // bad separator
		"01-000000000000000g-0000000000000002-01", // bad hex
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) succeeded", bad)
		}
	}
}

func TestTracerOffHotPathAllocs(t *testing.T) {
	var tr *Tracer // tracing off
	var parent *Span
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartChild(childName, parent)
		sp.SetStr("engine", "exact")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("tracing-off span site allocated %.1f per run, want 0", allocs)
	}
}

func TestTracerOnSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	tr := newTestTracer(Options{SampleEvery: 1, Journal: &buf})
	slot := 0
	// Warm the freelists and the encode buffer.
	for i := 0; i < 8; i++ {
		root := tr.StartRoot(rootName, slot)
		tr.StartChild(childName, root).End()
		root.End()
		slot++
	}
	allocs := testing.AllocsPerRun(50, func() {
		root := tr.StartRoot(rootName, slot)
		child := tr.StartChild(childName, root)
		child.SetStr("engine", "exact")
		child.SetInt("evaluations", 10)
		child.End()
		root.End()
		slot++
	})
	// Budget: the time.Now calls and map operations may allocate on some
	// runtimes; hold the whole sampled root+child cycle to ≤ 4.
	if allocs > 4 {
		t.Fatalf("steady-state traced slot allocated %.1f per run, budget 4", allocs)
	}
}

func FuzzTraceparentRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), true)
	f.Add(uint64(0xdeadbeef), uint64(0xcafef00d), false)
	f.Fuzz(func(t *testing.T, trace, span uint64, sampled bool) {
		sc := SpanContext{Trace: TraceID(trace), Span: SpanID(span), Sampled: sampled}
		s := FormatTraceparent(sc)
		if !sc.Valid() {
			if s != "" {
				t.Fatalf("invalid context formatted as %q", s)
			}
			return
		}
		got, err := ParseTraceparent(s)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", s, err)
		}
		if got != sc {
			t.Fatalf("round trip %+v != %+v", got, sc)
		}
	})
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("01-0000000000000001-0000000000000002-01")
	f.Add("00-00000000000000000000000000000001-0000000000000002-01")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err == nil && !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) returned invalid context without error", s)
		}
	})
}

// ringOccupancy returns how many spans tr's ring currently holds.
func ringOccupancy(tr *Tracer) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.ringLen
}
