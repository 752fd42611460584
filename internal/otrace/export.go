package otrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"spotdc/internal/metrics"
)

// SpanRecord is the exported (journal / HTTP / converter) form of a
// published span. Attrs values are string, int64→float64, float64, or
// bool exactly as annotated.
type SpanRecord struct {
	Trace       string                 `json:"trace"`
	Span        string                 `json:"span"`
	Parent      string                 `json:"parent,omitempty"`
	Name        string                 `json:"name"`
	Slot        int                    `json:"slot"`
	StartMicros int64                  `json:"start_us"`
	DurMicros   int64                  `json:"dur_us"`
	Attrs       map[string]interface{} `json:"attrs,omitempty"`
}

// Root reports whether the record is a trace root (no parent).
func (r SpanRecord) Root() bool { return r.Parent == "" }

// publishLocked commits one finished span: into the ring (overwriting
// oldest) and, when a journal is attached, as one JSON line. Callers
// hold mu.
func (t *Tracer) publishLocked(d *spanData) {
	t.ring[t.ringNext] = *d
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	if t.ringLen < len(t.ring) {
		t.ringLen++
	}
	t.opts.Metrics.sampled(t.ringLen)
	if t.opts.Journal == nil {
		return
	}
	t.buf = appendSpanJSON(t.buf[:0], d)
	if _, err := t.opts.Journal.Write(t.buf); err != nil {
		t.opts.Metrics.exportError()
	}
}

// appendSpanJSON encodes one span as a JSON line into dst. Manual
// encoding (no reflection, no intermediate map) keeps a journaled
// publish allocation-free once dst has grown.
func appendSpanJSON(dst []byte, d *spanData) []byte {
	dst = append(dst, `{"trace":"`...)
	dst = appendHex16(dst, uint64(d.Trace))
	dst = append(dst, `","span":"`...)
	dst = appendHex16(dst, uint64(d.ID))
	if d.Parent != 0 {
		dst = append(dst, `","parent":"`...)
		dst = appendHex16(dst, uint64(d.Parent))
	}
	dst = append(dst, `","name":`...)
	dst = metrics.AppendJSONString(dst, d.Name)
	dst = append(dst, `,"slot":`...)
	dst = strconv.AppendInt(dst, int64(d.Slot), 10)
	dst = append(dst, `,"start_us":`...)
	dst = strconv.AppendInt(dst, d.StartMicros, 10)
	dst = append(dst, `,"dur_us":`...)
	dst = strconv.AppendInt(dst, d.DurMicros, 10)
	if d.nattrs > 0 {
		dst = append(dst, `,"attrs":{`...)
		for i := 0; i < int(d.nattrs); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			a := &d.attrs[i]
			dst = metrics.AppendJSONString(dst, a.Key)
			dst = append(dst, ':')
			switch a.kind {
			case attrStr:
				dst = metrics.AppendJSONString(dst, a.str)
			case attrInt:
				dst = strconv.AppendInt(dst, a.i, 10)
			case attrFloat:
				dst = strconv.AppendFloat(dst, a.num, 'g', -1, 64)
			case attrBool:
				dst = strconv.AppendBool(dst, a.b)
			default:
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendHex16 appends v as 16 lowercase hex digits.
func appendHex16(dst []byte, v uint64) []byte {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

// record converts one ring/pending entry to its exported form.
func (d *spanData) record() SpanRecord {
	r := SpanRecord{
		Trace:       d.Trace.String(),
		Span:        d.ID.String(),
		Name:        d.Name,
		Slot:        d.Slot,
		StartMicros: d.StartMicros,
		DurMicros:   d.DurMicros,
	}
	if d.Parent != 0 {
		r.Parent = d.Parent.String()
	}
	if d.nattrs > 0 {
		r.Attrs = make(map[string]interface{}, d.nattrs)
		for i := 0; i < int(d.nattrs); i++ {
			a := &d.attrs[i]
			switch a.kind {
			case attrStr:
				r.Attrs[a.Key] = a.str
			case attrInt:
				r.Attrs[a.Key] = float64(a.i)
			case attrFloat:
				r.Attrs[a.Key] = a.num
			case attrBool:
				r.Attrs[a.Key] = a.b
			}
		}
	}
	return r
}

// Snapshot copies the ring's published spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.ringLen)
	start := t.ringNext - t.ringLen
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.ringLen; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)].record())
	}
	return out
}

// maxSpanLine bounds one span-journal line; spans are small, so anything
// larger is corruption.
const maxSpanLine = 1 << 20

// ReadSpans parses a JSONL span journal. Like the slot journal's reader
// it tolerates a torn tail: an unparsable final line (the process died
// mid-append) is dropped, while a malformed line followed by further
// lines is a hard error.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSpanLine)
	var out []SpanRecord
	var pending error
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if pending != nil {
			return nil, pending
		}
		var rec SpanRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			pending = fmt.Errorf("otrace: span journal line %d: %w", len(out)+1, err)
			continue
		}
		if rec.Trace == "" || rec.Span == "" || rec.Name == "" {
			pending = fmt.Errorf("otrace: span journal line %d: missing trace/span/name", len(out)+1)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// chromeEvent is one Chrome trace-event ("X" complete events), the JSON
// Perfetto's legacy importer loads.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   int64                  `json:"ts"`
	Dur  int64                  `json:"dur"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace converts spans to Chrome trace-event JSON loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each trace (= slot)
// gets its own tid so concurrent slots render as separate tracks; spans
// become "X" complete events with their attributes in args.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	tids := make(map[string]int)
	for _, sp := range spans {
		if _, ok := tids[sp.Trace]; !ok {
			tids[sp.Trace] = len(tids) + 1
		}
	}
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, sp := range spans {
		args := make(map[string]interface{}, len(sp.Attrs)+3)
		for k, v := range sp.Attrs {
			args[k] = v
		}
		args["trace"] = sp.Trace
		args["span"] = sp.Span
		args["slot"] = sp.Slot
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  "spotdc",
			Ph:   "X",
			Ts:   sp.StartMicros,
			Dur:  sp.DurMicros,
			Pid:  1,
			Tid:  tids[sp.Trace],
			Args: args,
		})
	}
	// Perfetto sorts internally, but emitting in ts order keeps the file
	// diffable for golden tests.
	sort.SliceStable(ct.TraceEvents, func(i, j int) bool { return ct.TraceEvents[i].Ts < ct.TraceEvents[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// ValidateChromeTrace checks data against the trace-event schema subset
// Perfetto's importer requires: a traceEvents array of "X" events, each
// with a name, non-negative ts/dur, and positive pid/tid. It is the
// embedded schema check behind `spotdc-spans -check` and the smoke test.
func ValidateChromeTrace(data []byte) error {
	var ct chromeTrace
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ct); err != nil {
		return fmt.Errorf("otrace: chrome trace: %w", err)
	}
	if ct.TraceEvents == nil {
		return fmt.Errorf("otrace: chrome trace: missing traceEvents array")
	}
	for i, ev := range ct.TraceEvents {
		switch {
		case ev.Name == "":
			return fmt.Errorf("otrace: chrome trace event %d: empty name", i)
		case ev.Ph != "X":
			return fmt.Errorf("otrace: chrome trace event %d: phase %q (want complete event \"X\")", i, ev.Ph)
		case ev.Ts < 0 || ev.Dur < 0:
			return fmt.Errorf("otrace: chrome trace event %d: negative ts/dur", i)
		case ev.Pid <= 0 || ev.Tid <= 0:
			return fmt.Errorf("otrace: chrome trace event %d: non-positive pid/tid", i)
		}
	}
	return nil
}

// TraceHandler serves the tracer's recent spans as JSON — the
// /debug/traces endpoint. ?slot=N filters to one slot's spans.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Snapshot()
		if q := req.URL.Query().Get("slot"); q != "" {
			slot, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad slot", http.StatusBadRequest)
				return
			}
			kept := spans[:0]
			for _, sp := range spans {
				if sp.Slot == slot {
					kept = append(kept, sp)
				}
			}
			spans = kept
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		_ = enc.Encode(spans)
	})
}
