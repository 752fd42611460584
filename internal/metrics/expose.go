package metrics

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP text per the Prometheus text format: backslash
// and newline are escaped; everything else passes through. The loop is
// byte-oriented on purpose — the escaped characters are ASCII, and byte
// processing preserves arbitrary (even invalid-UTF-8) input exactly, which
// FuzzEscapeRoundTrip relies on.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeLabel escapes a label value: backslash, double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k1="v1",k2="v2"} (plus an optional trailing le label
// for histogram buckets); it writes nothing when there are no labels.
func writeLabels(w *bufio.Writer, keys, vals []string, le string) {
	if len(keys) == 0 && le == "" {
		return
	}
	w.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(k)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(vals[i]))
		w.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		w.WriteString(le)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, samples sorted by label
// values, histograms as cumulative _bucket/_sum/_count series. The output
// is deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fs := range r.Snapshot() {
		if fs.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fs.Name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(fs.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fs.Name)
		bw.WriteByte(' ')
		bw.WriteString(fs.Kind.String())
		bw.WriteByte('\n')
		for _, s := range fs.Samples {
			switch fs.Kind {
			case KindCounter, KindGauge:
				bw.WriteString(fs.Name)
				writeLabels(bw, fs.Labels, s.LabelValues, "")
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(s.Value))
				bw.WriteByte('\n')
			case KindHistogram:
				cum := uint64(0)
				for i, c := range s.BucketCounts {
					cum += c
					le := "+Inf"
					if i < len(fs.Bounds) {
						le = formatFloat(fs.Bounds[i])
					}
					bw.WriteString(fs.Name)
					bw.WriteString("_bucket")
					writeLabels(bw, fs.Labels, s.LabelValues, le)
					bw.WriteByte(' ')
					bw.WriteString(strconv.FormatUint(cum, 10))
					bw.WriteByte('\n')
				}
				bw.WriteString(fs.Name)
				bw.WriteString("_sum")
				writeLabels(bw, fs.Labels, s.LabelValues, "")
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(s.Sum))
				bw.WriteByte('\n')
				bw.WriteString(fs.Name)
				bw.WriteString("_count")
				writeLabels(bw, fs.Labels, s.LabelValues, "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(s.Count, 10))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}
