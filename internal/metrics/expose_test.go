package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// series is one parsed exposition sample: a metric name plus its decoded
// label pairs in emission order.
type series struct {
	name   string
	labels [][2]string // key, decoded value
	value  float64
}

func (s series) key() string {
	var b strings.Builder
	b.WriteString(s.name)
	for _, kv := range s.labels {
		fmt.Fprintf(&b, "|%s=%s", kv[0], kv[1])
	}
	return b.String()
}

// parseExposition is a strict parser for the subset of the Prometheus text
// format WritePrometheus emits. It returns the samples keyed by
// name|label=value|..., plus HELP and TYPE maps, failing the test on any
// malformed line — so it doubles as a format validator.
func parseExposition(t *testing.T, text string) (samples map[string]float64, help, typ map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	help = make(map[string]string)
	typ = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line %q", line)
			}
			help[name] = unescapeValue(h)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typ[name] = k
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		s := parseSample(t, line)
		if _, dup := samples[s.key()]; dup {
			t.Fatalf("duplicate series %q", s.key())
		}
		samples[s.key()] = s.value
	}
	return samples, help, typ
}

func parseSample(t *testing.T, line string) series {
	t.Helper()
	var s series
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("malformed sample line %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("malformed labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Find the closing quote, skipping escaped characters.
			var raw strings.Builder
			for j := 0; ; j++ {
				if j >= len(rest) {
					t.Fatalf("unterminated label value in %q", line)
				}
				if rest[j] == '\\' && j+1 < len(rest) {
					raw.WriteByte(rest[j])
					raw.WriteByte(rest[j+1])
					j++
					continue
				}
				if rest[j] == '"' {
					rest = rest[j+1:]
					break
				}
				raw.WriteByte(rest[j])
			}
			s.labels = append(s.labels, [2]string{key, unescapeValue(raw.String())})
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "} ") {
				rest = rest[2:]
				break
			}
			t.Fatalf("malformed label block tail %q in %q", rest, line)
		}
	} else {
		rest = rest[1:] // the space
	}
	v, err := parseValue(rest)
	if err != nil {
		t.Fatalf("bad value %q in %q: %v", rest, line, err)
	}
	s.value = v
	return s
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// TestPrometheusRoundTrip registers one family of every kind — with label
// values exercising every escape sequence — observes known values, renders
// the registry, and parses the text back, asserting every sample, HELP and
// TYPE line survives the trip exactly.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()

	c := r.CounterVec("rt_requests_total", "requests by verdict\nsecond line \\ backslash", "verdict")
	c.With("ok").Add(7)
	c.With(`tricky "quoted" \ value` + "\nnewline").Inc()

	g := r.Gauge("rt_temperature", "a gauge")
	g.Set(-3.75)

	inf := r.Gauge("rt_inf", "positive infinity")
	inf.Set(math.Inf(1))

	lat := r.Histogram("rt_latency_seconds", "latency", []float64{0.1, 1})
	lat.Observe(0.05)
	lat.Observe(0.5)
	lat.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, help, typ := parseExposition(t, text)

	wantHelp := map[string]string{
		"rt_requests_total":  "requests by verdict\nsecond line \\ backslash",
		"rt_temperature":     "a gauge",
		"rt_inf":             "positive infinity",
		"rt_latency_seconds": "latency",
	}
	for name, want := range wantHelp {
		if got := help[name]; got != want {
			t.Errorf("HELP %s = %q, want %q", name, got, want)
		}
	}
	wantType := map[string]string{
		"rt_requests_total":  "counter",
		"rt_temperature":     "gauge",
		"rt_inf":             "gauge",
		"rt_latency_seconds": "histogram",
	}
	for name, want := range wantType {
		if got := typ[name]; got != want {
			t.Errorf("TYPE %s = %q, want %q", name, got, want)
		}
	}

	wantSamples := map[string]float64{
		`rt_requests_total|verdict=ok`:                                    7,
		`rt_requests_total|verdict=tricky "quoted" \ value` + "\nnewline": 1,
		`rt_temperature`:                    -3.75,
		`rt_inf`:                            math.Inf(1),
		`rt_latency_seconds_bucket|le=0.1`:  1,
		`rt_latency_seconds_bucket|le=1`:    2,
		`rt_latency_seconds_bucket|le=+Inf`: 3,
		`rt_latency_seconds_sum`:            30.55,
		`rt_latency_seconds_count`:          3,
	}
	if len(samples) != len(wantSamples) {
		t.Errorf("parsed %d samples, want %d:\n%s", len(samples), len(wantSamples), text)
	}
	for key, want := range wantSamples {
		got, ok := samples[key]
		if !ok {
			t.Errorf("series %q missing from exposition:\n%s", key, text)
			continue
		}
		if got != want {
			t.Errorf("series %q = %v, want %v", key, got, want)
		}
	}

	// The format promise: deterministic output for the same state.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two renders of the same state differ")
	}
}

// TestPrometheusNoRawNewlines asserts no sample or comment line ever
// contains an unescaped newline, whatever the label values and help texts.
func TestPrometheusNoRawNewlines(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("nl_total", "help with\nnewline", "k")
	v.With("a\nb\nc").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Every line must be a comment or parse as a sample; the parser fails
	// the test on fragments produced by unescaped newlines.
	parseExposition(t, b.String())
}

// TestServeScrape exercises the HTTP surface end to end: /metrics content
// type and body, /healthz liveness.
func TestServeScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("scrape_total", "scrapes").Add(3)
	addr, shutdown, err := ServeOpts("127.0.0.1:0", r, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	if !strings.Contains(string(body), "scrape_total 3") {
		t.Errorf("scrape body missing sample:\n%s", body)
	}

	hresp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if string(hbody) != "ok\n" {
		t.Errorf("/healthz = %q, want ok", hbody)
	}
}

// FuzzEscapeRoundTrip asserts the escaping used for label values and help
// texts is inverted exactly by unescapeValue for arbitrary input, and that
// escaped output never contains characters that would corrupt the
// line-oriented format.
func FuzzEscapeRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `back\slash`, "new\nline", `quo"te`, `\"`, `\\n`,
		"mixed \\ \" \n tail", "\\", "trailing backslash\\",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		esc := escapeLabel(s)
		if strings.Contains(esc, "\n") {
			t.Fatalf("escapeLabel(%q) = %q leaks a raw newline", s, esc)
		}
		// Every double quote must be escaped (preceded by an odd run of
		// backslashes), or the label block would terminate early.
		for i := 0; i < len(esc); i++ {
			if esc[i] != '"' {
				continue
			}
			bs := 0
			for j := i - 1; j >= 0 && esc[j] == '\\'; j-- {
				bs++
			}
			if bs%2 == 0 {
				t.Fatalf("escapeLabel(%q) = %q leaves an unescaped quote at %d", s, esc, i)
			}
		}
		if got := unescapeValue(esc); got != s {
			t.Errorf("label round-trip: %q -> %q -> %q", s, esc, got)
		}
		eh := escapeHelp(s)
		if strings.Contains(eh, "\n") {
			t.Fatalf("escapeHelp(%q) = %q leaks a raw newline", s, eh)
		}
		if got := unescapeValue(eh); got != s {
			t.Errorf("help round-trip: %q -> %q -> %q", s, eh, got)
		}
	})
}

// unescapeValue inverts escapeHelp/escapeLabel (they escape supersets of the
// same three sequences). Unknown escapes pass the backslash through, per the
// Prometheus parsers' lenient behavior.
func unescapeValue(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case '"':
				b.WriteByte('"')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
