package proto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"spotdc/internal/core"
)

// memStream is an in-memory ReadWriteCloser: Send appends to the buffer,
// Recv consumes it — enough for single-goroutine encode-then-decode tests.
type memStream struct{ bytes.Buffer }

func (m *memStream) Close() error { return nil }

// wireFixtures covers all six message types plus the empty-field edges.
var wireFixtures = []Message{
	{Type: TypeHello, Tenant: "acme", Racks: []string{"S-1", "S-2"}},
	{Type: TypeHello, Tenant: "bare"}, // no racks
	{Type: TypeHeartBeat, Tenant: "acme", Slot: 7},
	{Type: TypeHeartBeat},
	{Type: TypeBid, Tenant: "acme", Slot: 9, Bids: []RackBid{
		{Rack: "S-1", DMax: 50, QMin: 0.1, DMin: 10, QMax: 0.4},
		{Rack: "S-2", DMax: 32.5, QMin: 0.05, DMin: 0, QMax: 1.25},
	}},
	{Type: TypePrice, Tenant: "acme", Slot: 9, Price: 0.0375, Grants: []Grant{
		{Rack: "S-1", Watts: 240.5}, {Rack: "S-2", Watts: 0},
	}},
	{Type: TypePrice, Tenant: "acme", Slot: 10}, // degraded slot: zero price, no grants
	{Type: TypeBudgetReset, Tenant: "acme", Slot: 11, Grants: []Grant{{Rack: "S-1", Watts: 120}}},
	{Type: TypeError, Slot: 3, Detail: `unknown rack "X-9"`},
	{Type: TypeBid, Tenant: "negative", Slot: -1}, // slots are int64 on the wire
}

// copyMsg deep-copies a decoded message out of codec-owned scratch.
func copyMsg(m Message) Message {
	m.Racks = append([]string(nil), m.Racks...)
	m.Bids = append([]RackBid(nil), m.Bids...)
	m.Grants = append([]Grant(nil), m.Grants...)
	return m
}

// msgEqual compares messages with float64s compared by bit pattern (NaN
// payloads must survive the wire unchanged).
func msgEqual(a, b Message) bool {
	f64eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Type != b.Type || a.Tenant != b.Tenant || a.Slot != b.Slot || a.Detail != b.Detail ||
		!f64eq(a.Price, b.Price) ||
		len(a.Racks) != len(b.Racks) || len(a.Bids) != len(b.Bids) || len(a.Grants) != len(b.Grants) {
		return false
	}
	for i := range a.Racks {
		if a.Racks[i] != b.Racks[i] {
			return false
		}
	}
	for i := range a.Bids {
		x, y := a.Bids[i], b.Bids[i]
		if x.Rack != y.Rack || !f64eq(x.DMax, y.DMax) || !f64eq(x.QMin, y.QMin) ||
			!f64eq(x.DMin, y.DMin) || !f64eq(x.QMax, y.QMax) {
			return false
		}
	}
	for i := range a.Grants {
		if a.Grants[i].Rack != b.Grants[i].Rack || !f64eq(a.Grants[i].Watts, b.Grants[i].Watts) {
			return false
		}
	}
	return true
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	var buf memStream
	c := NewBinaryCodec(&buf)
	for _, m := range wireFixtures {
		if err := c.Send(m); err != nil {
			t.Fatalf("Send(%+v): %v", m, err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv after %+v: %v", m, err)
		}
		if got := copyMsg(got); !msgEqual(got, m) {
			t.Errorf("round-trip mismatch:\n sent %+v\n got  %+v", m, got)
		}
	}
}

// TestBinaryCodecMatchesJSON pins cross-encoding equivalence: every fixture
// decodes to the same Message through both codecs.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	for _, m := range wireFixtures {
		var jb, bb memStream
		jc, bc := NewCodec(&jb), NewBinaryCodec(&bb)
		if err := jc.Send(m); err != nil {
			t.Fatalf("json Send: %v", err)
		}
		if err := bc.Send(m); err != nil {
			t.Fatalf("binary Send: %v", err)
		}
		jm, err := jc.Recv()
		if err != nil {
			t.Fatalf("json Recv: %v", err)
		}
		bm, err := bc.Recv()
		if err != nil {
			t.Fatalf("binary Recv: %v", err)
		}
		if bm := copyMsg(bm); !msgEqual(jm, bm) {
			t.Errorf("encodings disagree for %+v:\n json   %+v\n binary %+v", m, jm, bm)
		}
	}
}

// frame encodes one message to raw bytes for corruption tests.
func frame(t *testing.T, m Message) []byte {
	t.Helper()
	var buf memStream
	if err := NewBinaryCodec(&buf).Send(m); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func TestBinaryCodecRejectsMalformed(t *testing.T) {
	base := frame(t, Message{Type: TypePrice, Tenant: "t", Slot: 4, Price: 1.5,
		Grants: []Grant{{Rack: "S-1", Watts: 10}}})
	corrupt := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), base...))
	}
	cases := map[string][]byte{
		"bad magic":   corrupt(func(b []byte) []byte { b[0] = '{'; return b }),
		"bad version": corrupt(func(b []byte) []byte { b[1] = 3; return b }),
		"unknown type code": corrupt(func(b []byte) []byte {
			b[2] = 99
			return b
		}),
		"oversize declared length": corrupt(func(b []byte) []byte {
			n := MaxLineBytes + 1
			b[3], b[4], b[5] = byte(n>>16), byte(n>>8), byte(n)
			return b
		}),
		"trailing payload bytes": corrupt(func(b []byte) []byte {
			b = append(b, 0xEE)
			n := len(b) - binFrameHeader
			b[3], b[4], b[5] = byte(n>>16), byte(n>>8), byte(n)
			return b
		}),
		"truncated inside payload": corrupt(func(b []byte) []byte {
			n := len(b) - binFrameHeader - 4 // length claims 4 bytes the frame lacks
			b[3], b[4], b[5] = byte(n>>16), byte(n>>8), byte(n)
			return b[:len(b)-8]
		}),
		// A hostile count the frame cannot possibly hold must be rejected by
		// the size pre-check, not trusted as an allocation hint.
		"hostile bid count": func() []byte {
			b := frame(t, Message{Type: TypeBid, Tenant: "t", Slot: 1})
			b[len(b)-2], b[len(b)-1] = 0xFF, 0xFF
			return b
		}(),
		"hostile grant count": func() []byte {
			b := frame(t, Message{Type: TypeBudgetReset, Tenant: "t", Slot: 1})
			copy(b[len(b)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			return b
		}(),
		"string overruns frame": func() []byte {
			b := frame(t, Message{Type: TypeError, Tenant: "t", Detail: "x"})
			b[len(b)-3] = 0xFF // detail length now far beyond the payload
			return b
		}(),
	}
	for name, raw := range cases {
		st := &memStream{}
		st.Write(raw)
		c := NewBinaryCodec(st)
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: want ErrProtocol or ErrUnexpectedEOF, got %v", name, err)
		}
	}
}

func TestBinaryCodecCleanEOF(t *testing.T) {
	c := NewBinaryCodec(&memStream{})
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	st := &memStream{}
	st.Write(frame(t, Message{Type: TypeHeartBeat, Tenant: "t"})[:3])
	c = NewBinaryCodec(st)
	if _, err := c.Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame EOF: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestSendRejectsUnencodableType(t *testing.T) {
	var buf memStream
	if err := NewBinaryCodec(&buf).Send(Message{Type: "gossip"}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
}

func TestParseEncoding(t *testing.T) {
	for in, want := range map[string]Encoding{"json": WireJSON, "binary": WireBinary} {
		got, err := ParseEncoding(in)
		if err != nil || got != want {
			t.Errorf("ParseEncoding(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEncoding("carrier-pigeon"); err == nil {
		t.Error("ParseEncoding accepted nonsense")
	}
}

// TestServerNegotiatesMixedEncodings proves the hello negotiation: a JSON
// client and a binary client share one market — both bid, both receive the
// same slot's price broadcast, each in its own encoding.
func TestServerNegotiatesMixedEncodings(t *testing.T) {
	s := newServer(t)
	jc, err := Dial(s.Addr(), "alpha", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	bc, err := DialOpts(s.Addr(), "beta", []string{"S-2"}, ClientOptions{Wire: WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	waitSessions(t, s, 2)

	if err := jc.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 50, QMin: 0.1, DMin: 10, QMax: 0.4}}); err != nil {
		t.Fatal(err)
	}
	if err := bc.SubmitBids(1, []RackBid{{Rack: "S-2", DMax: 40, QMin: 0.2, DMin: 5, QMax: 0.5}}); err != nil {
		t.Fatal(err)
	}
	bids := awaitBids(t, s, 1, 2)
	if len(bids) != 2 {
		t.Fatalf("want 2 bids, got %d", len(bids))
	}

	allocs := []core.Allocation{
		{Rack: 0, Tenant: "alpha", Watts: 120},
		{Rack: 1, Tenant: "beta", Watts: 80},
	}
	rackID := func(i int) string { return []string{"S-1", "S-2", "O-1", "O-2"}[i] }
	var wg sync.WaitGroup
	results := make([]struct {
		price  float64
		grants []Grant
		err    error
	}, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0].price, results[0].grants, results[0].err = jc.AwaitPrice(1, 2*time.Second)
	}()
	go func() {
		defer wg.Done()
		results[1].price, results[1].grants, results[1].err = bc.AwaitPrice(1, 2*time.Second)
	}()
	time.Sleep(50 * time.Millisecond) // let both waiters arm
	s.Broadcast(1, 0.25, allocs, rackID)
	wg.Wait()
	for i, want := range []Grant{{Rack: "S-1", Watts: 120}, {Rack: "S-2", Watts: 80}} {
		r := results[i]
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if r.price != 0.25 || len(r.grants) != 1 || r.grants[0] != want {
			t.Errorf("client %d: price %v grants %+v, want price 0.25 grants [%+v]", i, r.price, r.grants, want)
		}
	}
}

// TestSortedSessions pins the Sessions() ordering contract.
func TestSortedSessions(t *testing.T) {
	s := newServer(t)
	for _, name := range []string{"zeta/S-1", "alpha/S-2", "mid/O-1"} {
		parts := strings.SplitN(name, "/", 2)
		c, err := Dial(s.Addr(), parts[0], []string{parts[1]})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitSessions(t, s, 3)
	got := s.Sessions()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sessions() = %v, want %v", got, want)
		}
	}
}
