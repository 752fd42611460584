package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates metric families.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String implements fmt.Stringer (matches the Prometheus TYPE spelling).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Registry is a collection of metric families. Registration is get-or-create
// and idempotent: asking for an already-registered name with a matching kind
// and label set returns the existing family's handles, so wiring code may
// run once per component instance against a shared registry (e.g. the
// experiment fan-out creating one operator per scenario). A mismatched
// re-registration (same name, different kind, labels, or buckets) panics —
// that is a programming error at setup time, never a runtime condition.
//
// Registration takes a lock; observation never does (handles are atomic).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	vals []string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// labelKey joins label values with an unlikely separator for child lookup.
const labelSep = "\x1f"

func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case !label && r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use and
// panicking on any structural mismatch with a previous registration.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l, true) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bucket bounds not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// with returns the family's child for the given label values, creating it on
// first use.
func (f *family) with(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := &child{vals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		ch.c = &Counter{}
	case KindGauge:
		ch.g = &Gauge{}
	case KindHistogram:
		ch.h = newHistogram(f.bounds)
	}
	f.children[key] = ch
	return ch
}

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).with(nil).c
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).with(nil).g
}

// Histogram registers (or retrieves) an unlabeled histogram with the given
// bucket upper bounds (an implicit +Inf bucket is always appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, bounds).with(nil).h
}

// CounterVec is a labeled counter family; resolve children with With during
// setup and hold the returned handles on the hot path.
type CounterVec struct{ f *family }

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the pre-resolved child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the pre-resolved child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).g }

// Sample is one metric instance inside a FamilySnapshot.
type Sample struct {
	// LabelValues aligns with the family's Labels.
	LabelValues []string
	// Value carries a counter's count (as float64) or a gauge's value.
	Value float64
	// Count / Sum / BucketCounts are set for histograms; BucketCounts[i] is
	// the non-cumulative count of the i-th bucket, with the final entry the
	// implicit +Inf bucket (the family snapshot carries the bounds).
	Count        uint64
	Sum          float64
	BucketCounts []uint64
}

// FamilySnapshot is one family's deterministic point-in-time state.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Bounds  []float64
	Samples []Sample
}

// Snapshot returns every family's state, sorted by family name with samples
// sorted by label values — the same deterministic order WritePrometheus
// emits, so tests can assert on it directly.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind,
			Labels: append([]string(nil), f.labels...),
			Bounds: append([]float64(nil), f.bounds...),
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ch := f.children[k]
			s := Sample{LabelValues: append([]string(nil), ch.vals...)}
			switch f.kind {
			case KindCounter:
				s.Value = float64(ch.c.Value())
			case KindGauge:
				s.Value = ch.g.Value()
			case KindHistogram:
				s.Count = ch.h.Count()
				s.Sum = ch.h.Sum()
				s.BucketCounts = make([]uint64, len(ch.h.buckets))
				for i := range ch.h.buckets {
					s.BucketCounts[i] = ch.h.buckets[i].Load()
				}
			}
			fs.Samples = append(fs.Samples, s)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// Value looks one metric instance up by family name and label values —
// a test convenience over Snapshot. Histograms report their observation
// count. The boolean is false when the family or child does not exist.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.Lock()
	ch, ok := f.children[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch f.kind {
	case KindCounter:
		return float64(ch.c.Value()), true
	case KindGauge:
		return ch.g.Value(), true
	default:
		return float64(ch.h.Count()), true
	}
}
