package proto

import (
	"errors"
	"strings"
	"testing"
	"unicode/utf8"

	"spotdc/internal/otrace"
)

// Wire propagation of the trace envelope field (DESIGN §4i): JSON carries
// it as an omitempty "trace" key; every binary frame carries it, empty when
// untraced.

func TestJSONTraceRoundTrip(t *testing.T) {
	tp := otrace.FormatTraceparent(otrace.SpanContext{Trace: 0xabc, Span: 0xdef, Sampled: true})
	var buf memStream
	c := NewCodec(&buf)
	m := Message{Type: TypePrice, Tenant: "acme", Slot: 4, Price: 0.05, Trace: tp}
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	// Old JSON peers see a plain extra key; untraced messages omit it.
	raw := buf.String()
	if !strings.Contains(raw, `"trace":"`+tp+`"`) {
		t.Fatalf("trace field not on the wire: %s", raw)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != tp {
		t.Fatalf("Trace = %q, want %q", got.Trace, tp)
	}

	buf.Reset()
	if err := c.Send(Message{Type: TypeHeartBeat, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace") {
		t.Fatalf("untraced message leaked a trace key: %s", buf.String())
	}
}

// TestBinaryRefusesOlderPeer pins the one-version rule: a version-1 frame
// (the framing before the trace field) is refused by name, not decoded.
func TestBinaryRefusesOlderPeer(t *testing.T) {
	raw := frame(t, Message{Type: TypeHello, Tenant: "legacy", Racks: []string{"S-1"}})
	raw[1] = 1
	st := &memStream{}
	st.Write(raw)
	_, err := NewBinaryCodec(st).Recv()
	if !errors.Is(err, errOlderPeer) || !errors.Is(err, ErrProtocol) {
		t.Fatalf("v1 frame: want errOlderPeer wrapping ErrProtocol, got %v", err)
	}
	if !strings.Contains(err.Error(), "older peer") {
		t.Fatalf("v1 refusal does not name the older peer: %v", err)
	}
}

func TestBinaryV2TraceRoundTrip(t *testing.T) {
	var buf memStream
	c := NewBinaryCodec(&buf)
	for _, m := range wireFixtures {
		m.Trace = "01-00000000000000ab-00000000000000cd-01"
		if err := c.Send(m); err != nil {
			t.Fatalf("Send(%+v): %v", m, err)
		}
		if got := buf.Bytes()[1]; got != binVersion {
			t.Fatalf("frame version = %d, want %d", got, binVersion)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv after %+v: %v", m, err)
		}
		if got.Trace != m.Trace {
			t.Fatalf("Trace = %q, want %q", got.Trace, m.Trace)
		}
		got.Trace, m.Trace = "", ""
		if got := copyMsg(got); !msgEqual(got, m) {
			t.Errorf("v2 round trip mismatch:\n sent %+v\n got  %+v", m, got)
		}
	}
}

func TestBinaryV2EmptyTrace(t *testing.T) {
	var buf memStream
	c := NewBinaryCodec(&buf)
	if err := c.Send(Message{Type: TypeHeartBeat, Tenant: "acme", Slot: 3}); err != nil {
		t.Fatal(err)
	}
	// Envelope = tenant (2+4) + slot (8) + the empty trace field (2).
	if n := buf.Len() - binFrameHeader; n != 16 {
		t.Fatalf("untraced heartbeat payload = %d bytes, want 16", n)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != "" || got.Tenant != "acme" || got.Slot != 3 {
		t.Fatalf("v2 empty-trace round trip = %+v", got)
	}
}

// TestBinaryTraceNeedsNoNegotiation: fresh codecs on both ends carry the
// trace upstream (bid) and downstream (price) with no per-session setup.
func TestBinaryTraceNeedsNoNegotiation(t *testing.T) {
	var wire memStream
	client := NewBinaryCodec(&wire)
	server := NewBinaryCodec(&wire) // shares the buffer: one side writes, the other reads

	up := "01-00000000000000ab-00000000000000cd-00"
	if err := client.Send(Message{Type: TypeBid, Tenant: "acme", Slot: 1, Trace: up}); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != up {
		t.Fatalf("server received Trace %q, want %q", got.Trace, up)
	}
	down := "01-0000000000000011-0000000000000022-01"
	if err := server.Send(Message{Type: TypePrice, Tenant: "acme", Slot: 1, Price: 0.02, Trace: down}); err != nil {
		t.Fatal(err)
	}
	if got, err = client.Recv(); err != nil {
		t.Fatal(err)
	}
	if got.Trace != down {
		t.Fatalf("client received Trace %q, want %q", got.Trace, down)
	}
}

// FuzzTraceFieldRoundTrip drives arbitrary trace strings through both
// encodings: whatever value the envelope carries must survive JSON and a
// binary frame byte-identically (or error cleanly, never panic).
func FuzzTraceFieldRoundTrip(f *testing.F) {
	f.Add("01-00000000000000ab-00000000000000cd-01", "acme", int64(9))
	f.Add("", "t", int64(-1))
	f.Add("not-a-traceparent \x00\xff ünïcode", "tenant", int64(1<<40))
	f.Fuzz(func(t *testing.T, trace, tenant string, slot int64) {
		m := Message{Type: TypeBid, Tenant: tenant, Slot: int(slot), Trace: trace,
			Bids: []RackBid{{Rack: "S-1", DMax: 1, QMax: 2}}}

		var jb memStream
		jc := NewCodec(&jb)
		if err := jc.Send(m); err != nil {
			t.Skip() // oversized line; the codec's business, not the fuzz's
		}
		jm, err := jc.Recv()
		if err != nil {
			t.Fatalf("json Recv: %v", err)
		}
		// JSON transcodes invalid UTF-8 to U+FFFD (encoding/json contract);
		// byte-exactness is only promised for valid UTF-8. Binary promises
		// it unconditionally, below.
		if utf8.ValidString(trace) && jm.Trace != trace {
			t.Fatalf("json Trace = %q, want %q", jm.Trace, trace)
		}

		var bb memStream
		bc := NewBinaryCodec(&bb)
		if err := bc.Send(m); err != nil {
			if len(trace) > 1<<16 || len(tenant) > 1<<16 {
				return // string-field cap; a clean error is the contract
			}
			t.Fatalf("binary Send: %v", err)
		}
		bm, err := bc.Recv()
		if err != nil {
			t.Fatalf("binary Recv: %v", err)
		}
		if bm.Trace != trace {
			t.Fatalf("binary Trace = %q, want %q", bm.Trace, trace)
		}
		if bm.Tenant != tenant || bm.Slot != int(slot) {
			t.Fatalf("binary envelope = %+v, want tenant %q slot %d", bm, tenant, slot)
		}
	})
}
