// Package otrace is SpotDC's zero-dependency distributed tracing
// subsystem, built in the style of the metrics registry (DESIGN §4i):
// pre-allocated storage, nil-safe handles, and an "off" path that costs
// one branch and zero allocations on the market's hot paths.
//
// A trace covers one market slot end to end: the loop opens a root span
// at the slot boundary, the operator and clearing core attach predict /
// clear / audit children, the WAL commit and broadcast fan-out attach
// theirs, and the tenant client's bid-decision / submit / await-price
// spans parent under the same trace via a traceparent-style wire field
// (see Adopt). Completed spans land in a fixed-capacity ring buffer and,
// optionally, a JSONL span journal keyed by slot so spotdc-audit can
// join spans against slot-journal records.
//
// Sampling is head-based per slot (every Nth root) with forced upgrades
// for the slots an operator actually debugs: degraded, breaker-open,
// emergency, and slowest-percentile slots (ForceSample and the root-end
// latency check). Undecided traces buffer their spans until the decision
// lands, so a forced upgrade loses nothing.
package otrace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceID identifies one slot's trace. 64 bits: the ID space only has to
// be unique within a market run, not globally, and 64-bit IDs keep the
// wire field and the ring compact.
type TraceID uint64

// String renders the ID as fixed-width hex (the journal/export form).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanContext is the propagatable half of a span: enough to parent remote
// work under it and to carry the sampling decision across the wire.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// attrKind discriminates the typed attribute slots.
type attrKind uint8

const (
	attrNone attrKind = iota
	attrStr
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed key/value annotation on a span.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  float64
	i    int64
	b    bool
}

// maxAttrs bounds per-span annotations; a fixed array keeps spans
// copyable into the ring without chasing pointers.
const maxAttrs = 8

// spanData is the value form of a span: what the ring and the pending
// buffers store. It contains no pointers into the tracer so ring entries
// never pin anything.
type spanData struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Slot   int
	// StartMicros is the wall-clock start (unix µs); duration is measured
	// monotonically from start (time.Since) so clock steps never produce
	// negative spans.
	StartMicros int64
	DurMicros   int64
	start       time.Time
	attrs       [maxAttrs]Attr
	nattrs      uint8
	// sampled/noState carry the decision for spans whose trace has no
	// local state (remote parents, e.g. writer-goroutine send spans after
	// the trace aged out): publish iff sampled.
	sampled bool
	noState bool
}

// Span is an in-flight span handle. All methods are nil-receiver safe:
// with tracing off (nil Tracer) every Start* returns nil and the
// instrumentation costs one branch per call site.
type Span struct {
	t *Tracer
	d spanData
}

// Options tunes a Tracer. The zero value samples every slot into a
// 4096-span ring with no journal.
type Options struct {
	// SampleEvery head-samples every Nth slot's trace (slot%N == 0);
	// values ≤ 1 sample every slot. Unsampled slots still trace — their
	// spans buffer until the slot ends — so a forced upgrade (degraded,
	// breaker-open, emergency, slow) publishes the full trace.
	SampleEvery int
	// RingCapacity bounds the in-memory recorder (default 4096 spans);
	// the ring overwrites oldest-first.
	RingCapacity int
	// Journal, if non-nil, receives every published span as one JSON line
	// (ReadSpans parses it back). Write errors are counted on Metrics and
	// never propagate into the market path.
	Journal io.Writer
	// Metrics, if non-nil, counts spans started/sampled/dropped, ring
	// occupancy, and export errors on the shared registry.
	Metrics *TracerMetrics
	// MaxActiveTraces bounds the per-trace pending state (default 64);
	// the oldest trace is evicted FIFO, dropping its unpublished spans.
	MaxActiveTraces int
	// SlowPercentile, in (0,1), force-samples a root span slower than
	// this percentile of the recent root-duration window even when head
	// sampling skipped its slot (default 0.99; negative disables). The
	// upgrade lands at root end, after the broadcast, so it is operator-
	// side only — tenants follow the head decision they saw on the wire.
	SlowPercentile float64
	// Seed fixes the ID generator for reproducible tests (0 seeds from
	// the clock).
	Seed int64
}

// traceState buffers one trace's spans until its sampling decision is
// final, and tracks the decision afterwards for late finishers (e.g.
// per-session send spans ending on writer goroutines).
type traceState struct {
	id      TraceID
	root    SpanID
	slot    int
	decided bool
	sampled bool
	// deferred marks a provisional root (StartProvisionalRoot): the head
	// sampling decision is postponed to Adopt or root end, so every child
	// stays buffered and re-keys cleanly under an adopted remote trace.
	deferred bool
	pending  []spanData
	active   []*Span
}

// Tracer records spans. All methods are safe for concurrent use and safe
// on a nil receiver (the "tracing off" path).
type Tracer struct {
	opts Options

	mu  sync.Mutex
	rng uint64

	ring     []spanData
	ringNext int
	ringLen  int

	free      []*Span
	traces    map[TraceID]*traceState
	order     []TraceID
	stateFree []*traceState

	// buf is the reusable journal encode scratch; encoding into it keeps
	// a journaled publish allocation-free in steady state.
	buf []byte

	// window holds recent root durations (µs) for the slowest-percentile
	// upgrade; sorted is its reusable sort scratch.
	window    []int64
	windowLen int
	windowAt  int
	sorted    []int64
}

// NewTracer builds a tracer with pre-allocated ring and freelists.
func NewTracer(opts Options) *Tracer {
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = 4096
	}
	if opts.MaxActiveTraces <= 0 {
		opts.MaxActiveTraces = 64
	}
	if opts.SlowPercentile == 0 {
		opts.SlowPercentile = 0.99
	}
	seed := uint64(opts.Seed)
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return &Tracer{
		opts:   opts,
		rng:    seed,
		ring:   make([]spanData, opts.RingCapacity),
		traces: make(map[TraceID]*traceState, opts.MaxActiveTraces+1),
		order:  make([]TraceID, 0, opts.MaxActiveTraces+1),
		window: make([]int64, 128),
		sorted: make([]int64, 0, 128),
	}
}

// nextID draws a non-zero pseudo-random 64-bit ID (splitmix64).
// Callers hold mu.
func (t *Tracer) nextID() uint64 {
	for {
		t.rng += 0x9e3779b97f4a7c15
		z := t.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// getSpan pops a span from the freelist. Callers hold mu.
func (t *Tracer) getSpan() *Span {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		s.d = spanData{}
		return s
	}
	return &Span{}
}

// putSpan recycles a finished span. Callers hold mu.
func (t *Tracer) putSpan(s *Span) {
	s.t = nil
	t.free = append(t.free, s)
}

// getState pops a trace state from the freelist. Callers hold mu.
func (t *Tracer) getState() *traceState {
	if n := len(t.stateFree); n > 0 {
		st := t.stateFree[n-1]
		t.stateFree = t.stateFree[:n-1]
		st.id, st.root, st.slot = 0, 0, 0
		st.decided, st.sampled, st.deferred = false, false, false
		st.pending = st.pending[:0]
		st.active = st.active[:0]
		return st
	}
	return &traceState{}
}

// evictOldest drops the FIFO-oldest trace state, discarding any
// unpublished spans. Callers hold mu.
func (t *Tracer) evictOldest() {
	if len(t.order) == 0 {
		return
	}
	id := t.order[0]
	copy(t.order, t.order[1:])
	t.order = t.order[:len(t.order)-1]
	st := t.traces[id]
	if st == nil {
		return
	}
	delete(t.traces, id)
	if !st.decided {
		t.opts.Metrics.droppedN(dropEvicted, len(st.pending))
	}
	// Active spans of the evicted trace finish as stateless: they follow
	// the decision as of eviction.
	for _, sp := range st.active {
		sp.d.noState = true
		sp.d.sampled = st.decided && st.sampled
	}
	t.stateFree = append(t.stateFree, st)
}

// StartRoot opens a slot's root span and its trace, applying the head
// sampling decision immediately — the operator form, so the sampled flag
// is already on the wire context when the slot's broadcast goes out.
// Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartRoot(name string, slot int) *Span {
	return t.startRoot(name, slot, false)
}

// StartProvisionalRoot opens a root whose head sampling decision is
// deferred until Adopt or root end — the tenant form: children buffer
// instead of publishing, so when the price broadcast delivers the
// operator's traceparent the whole trace re-keys under it (Adopt) with
// nothing already flushed under the provisional ID. A slot that never
// hears a broadcast falls back to the local head decision at root end.
func (t *Tracer) StartProvisionalRoot(name string, slot int) *Span {
	return t.startRoot(name, slot, true)
}

func (t *Tracer) startRoot(name string, slot int, deferred bool) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.opts.Metrics.started()
	s := t.getSpan()
	s.t = t
	s.d.Trace = TraceID(t.nextID())
	s.d.ID = SpanID(t.nextID())
	s.d.Name = name
	s.d.Slot = slot
	now := time.Now()
	s.d.start = now
	s.d.StartMicros = now.UnixMicro()

	st := t.getState()
	st.id = s.d.Trace
	st.root = s.d.ID
	st.slot = slot
	st.deferred = deferred
	if !deferred && t.headSampled(slot) {
		st.decided, st.sampled = true, true
	}
	st.active = append(st.active, s)
	t.traces[st.id] = st
	t.order = append(t.order, st.id)
	if len(t.order) > t.opts.MaxActiveTraces {
		t.evictOldest()
	}
	return s
}

// headSampled is the head sampling rule: every Nth slot. Callers hold mu.
func (t *Tracer) headSampled(slot int) bool {
	return t.opts.SampleEvery <= 1 || (slot >= 0 && slot%t.opts.SampleEvery == 0)
}

// StartChild opens a child span under parent (same trace). A nil tracer
// or nil parent returns nil, so uninstrumented paths stay span-free.
func (t *Tracer) StartChild(name string, parent *Span) *Span {
	if t == nil || parent == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, parent.d.Trace, parent.d.ID, parent.d.Slot,
		parent.d.noState, parent.d.sampled)
}

// StartRemote opens a span under a propagated context — the cross-process
// (and cross-goroutine) form: per-session send spans and any receiver of
// a traceparent field use it. If the context's trace still has local
// state the span joins it; otherwise the context's sampled flag decides.
func (t *Tracer) StartRemote(name string, slot int, ctx SpanContext) *Span {
	if t == nil || !ctx.Valid() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, ctx.Trace, ctx.Span, slot, true, ctx.Sampled)
}

// startLocked builds a non-root span. Callers hold mu.
func (t *Tracer) startLocked(name string, trace TraceID, parent SpanID, slot int, noState, sampled bool) *Span {
	t.opts.Metrics.started()
	s := t.getSpan()
	s.t = t
	s.d.Trace = trace
	s.d.ID = SpanID(t.nextID())
	s.d.Parent = parent
	s.d.Name = name
	s.d.Slot = slot
	now := time.Now()
	s.d.start = now
	s.d.StartMicros = now.UnixMicro()
	if st := t.traces[trace]; st != nil {
		st.active = append(st.active, s)
	} else {
		s.d.noState = noState
		s.d.sampled = sampled
	}
	return s
}

// Context returns the span's propagatable context. The sampled flag is
// the trace's decision so far: undecided traces report false (a later
// slowest-percentile upgrade is operator-side only, by design).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	t := s.t
	if t == nil {
		return SpanContext{Trace: s.d.Trace, Span: s.d.ID, Sampled: s.d.sampled}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sampled := s.d.noState && s.d.sampled
	if st := t.traces[s.d.Trace]; st != nil {
		sampled = st.decided && st.sampled
	}
	return SpanContext{Trace: s.d.Trace, Span: s.d.ID, Sampled: sampled}
}

// SetStr annotates the span with a string attribute (nil-safe).
func (s *Span) SetStr(key, val string) {
	if s == nil || s.d.nattrs >= maxAttrs {
		return
	}
	s.d.attrs[s.d.nattrs] = Attr{Key: key, kind: attrStr, str: val}
	s.d.nattrs++
}

// SetInt annotates the span with an integer attribute (nil-safe).
func (s *Span) SetInt(key string, val int64) {
	if s == nil || s.d.nattrs >= maxAttrs {
		return
	}
	s.d.attrs[s.d.nattrs] = Attr{Key: key, kind: attrInt, i: val}
	s.d.nattrs++
}

// SetFloat annotates the span with a float attribute (nil-safe).
func (s *Span) SetFloat(key string, val float64) {
	if s == nil || s.d.nattrs >= maxAttrs {
		return
	}
	s.d.attrs[s.d.nattrs] = Attr{Key: key, kind: attrFloat, num: val}
	s.d.nattrs++
}

// SetBool annotates the span with a boolean attribute (nil-safe).
func (s *Span) SetBool(key string, val bool) {
	if s == nil || s.d.nattrs >= maxAttrs {
		return
	}
	s.d.attrs[s.d.nattrs] = Attr{Key: key, kind: attrBool, b: val}
	s.d.nattrs++
}

// ForceSample upgrades the span's whole trace to sampled — the degraded /
// breaker-open / emergency path. Buffered spans publish immediately;
// spans still in flight publish when they end. Nil-safe.
func (s *Span) ForceSample() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.traces[s.d.Trace]; st != nil {
		t.decideLocked(st, true)
	} else {
		s.d.noState = true
		s.d.sampled = true
	}
}

// decideLocked finalizes a trace's sampling decision, publishing or
// dropping its buffered spans. Callers hold mu.
func (t *Tracer) decideLocked(st *traceState, sampled bool) {
	if st.decided {
		if sampled && !st.sampled {
			st.sampled = true
			for i := range st.pending {
				t.publishLocked(&st.pending[i])
			}
			st.pending = st.pending[:0]
		}
		return
	}
	st.decided, st.sampled = true, sampled
	if sampled {
		for i := range st.pending {
			t.publishLocked(&st.pending[i])
		}
	} else {
		t.opts.Metrics.droppedN(dropUnsampled, len(st.pending))
	}
	st.pending = st.pending[:0]
}

// End closes the span: its duration is fixed and it publishes, buffers,
// or drops per the trace's sampling decision. Nil-safe; End on an already
// recycled span is undefined (spans are single-End, like timers).
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	dur := time.Since(s.d.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.d.DurMicros = dur
	st := t.traces[s.d.Trace]
	if st != nil {
		// Unregister from the active set (swap-delete; the set is tiny).
		for i, sp := range st.active {
			if sp == s {
				st.active[i] = st.active[len(st.active)-1]
				st.active = st.active[:len(st.active)-1]
				break
			}
		}
		if s.d.ID == st.root {
			t.endRootLocked(st, &s.d)
		} else if st.decided {
			if st.sampled {
				t.publishLocked(&s.d)
			} else {
				t.opts.Metrics.droppedN(dropUnsampled, 1)
			}
		} else {
			st.pending = append(st.pending, s.d)
		}
	} else {
		if s.d.noState && s.d.sampled {
			t.publishLocked(&s.d)
		} else {
			t.opts.Metrics.droppedN(dropUnsampled, 1)
		}
	}
	t.putSpan(s)
}

// endRootLocked settles a trace at its root's end: the slow-percentile
// upgrade is evaluated here, then the decision finalizes and the root
// itself publishes or drops. The state stays registered (FIFO-evicted
// later) so late spans — broadcast sends finishing on writer goroutines —
// still follow the decision.
func (t *Tracer) endRootLocked(st *traceState, root *spanData) {
	if !st.decided && st.deferred && t.headSampled(st.slot) {
		// Provisional root that never adopted a remote decision (no
		// broadcast arrived): the local head rule applies now.
		t.decideLocked(st, true)
	}
	if !st.decided && t.opts.SlowPercentile > 0 && t.isSlowLocked(root.DurMicros) {
		t.decideLocked(st, true)
	}
	t.observeRootLocked(root.DurMicros)
	if !st.decided {
		t.decideLocked(st, false)
	}
	if st.sampled {
		t.publishLocked(root)
	} else {
		t.opts.Metrics.droppedN(dropUnsampled, 1)
	}
}

// observeRootLocked feeds the slow-detection window. Callers hold mu.
func (t *Tracer) observeRootLocked(durMicros int64) {
	t.window[t.windowAt] = durMicros
	t.windowAt = (t.windowAt + 1) % len(t.window)
	if t.windowLen < len(t.window) {
		t.windowLen++
	}
}

// isSlowLocked reports whether dur exceeds the SlowPercentile of the
// recent root-duration window (needs ≥16 observations to fire).
func (t *Tracer) isSlowLocked(durMicros int64) bool {
	if t.windowLen < 16 {
		return false
	}
	t.sorted = append(t.sorted[:0], t.window[:t.windowLen]...)
	// Insertion sort: the window is 128 entries and nearly sorted runs
	// are common; this avoids sort.Slice's closure allocation.
	for i := 1; i < len(t.sorted); i++ {
		v := t.sorted[i]
		j := i - 1
		for j >= 0 && t.sorted[j] > v {
			t.sorted[j+1] = t.sorted[j]
			j--
		}
		t.sorted[j+1] = v
	}
	k := int(float64(len(t.sorted)-1) * t.opts.SlowPercentile)
	return durMicros > t.sorted[k]
}

// Adopt re-homes a local trace under a remote parent — the tenant side of
// wire propagation. The local root (and every span of its trace, buffered
// or in flight) moves into remote.Trace, the root parents under
// remote.Span, and the remote sampling decision replaces the local one.
// Call it when the price broadcast delivers the operator's traceparent;
// slots with no broadcast keep their local decision.
func (t *Tracer) Adopt(root *Span, remote SpanContext) {
	if t == nil || root == nil || !remote.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := root.d.Trace
	st := t.traces[old]
	if st == nil || st.root != root.d.ID {
		return
	}
	delete(t.traces, old)
	root.d.Parent = remote.Span
	for i := range st.pending {
		st.pending[i].Trace = remote.Trace
	}
	for _, sp := range st.active {
		sp.d.Trace = remote.Trace
	}
	// Same-process adoption (shared tracer) could collide with the
	// operator's own state for the trace: settle our buffer on the remote
	// decision, hand the in-flight spans a stateless copy of it, and
	// retire the state — the operator's stays authoritative.
	if _, taken := t.traces[remote.Trace]; taken {
		for i := range t.order {
			if t.order[i] == old {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
		st.decided = false
		t.decideLocked(st, remote.Sampled)
		for _, sp := range st.active {
			sp.d.noState = true
			sp.d.sampled = remote.Sampled
		}
		t.stateFree = append(t.stateFree, st)
		return
	}
	st.id = remote.Trace
	for i := range t.order {
		if t.order[i] == old {
			t.order[i] = remote.Trace
			break
		}
	}
	t.traces[remote.Trace] = st
	st.decided = false
	t.decideLocked(st, remote.Sampled)
}
