package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"spotdc/internal/binenc"
)

// Binary wire framing (DESIGN §4g). Every message is one frame:
//
//	[0] magic     0xBF — distinguishes a binary hello from JSON's '{'
//	[1] version   0x02
//	[2] type      message type code (binHello..binError)
//	[3:6] length  24-bit big-endian payload length (≤ MaxLineBytes)
//	[6:]  payload
//
// The payload always opens with the envelope fields every message carries —
// tenant (string), slot (int64) and trace (string, "" when untraced) —
// followed by a type-specific body:
//
//	hello         u16 rack count, then rack IDs (strings)
//	heartbeat     (empty)
//	bid           u16 bid count, then per bid: rack ID, DMax, QMin, DMin,
//	              QMax (float64s, struct order)
//	price         price (float64), u32 grant count, then per grant: rack
//	              ID, watts (float64)
//	budget_reset  u32 grant count, then grants as in price
//	error         detail (string)
//
// Scalars are big-endian; float64s are IEEE-754 bits; strings are a u16
// length followed by raw bytes — the internal/binenc primitives, shared with
// the WAL slot record and the journal's packed section. Everything is
// length-checked against the frame, so a truncated or hostile frame decodes
// to ErrProtocol, never a panic or an over-allocation.
//
// There is one frame version. Version 1, which lacked the trace field, is
// refused with errOlderPeer rather than decoded: no deployed peers speak
// it, so no compatibility path is kept.
const (
	binMagic   = 0xBF
	binVersion = 2

	binFrameHeader = 6
)

// errOlderPeer answers a version-1 frame.
var errOlderPeer = fmt.Errorf("%w: binary wire version 1 from an older peer; "+
	"this build speaks version %d only — upgrade the peer", ErrProtocol, binVersion)

// Binary message type codes (frame header byte 2).
const (
	binHello = iota + 1
	binHeartBeat
	binBid
	binPrice
	binBudgetReset
	binError
)

// binTypeCode maps a wire MsgType to its frame code (0 = unencodable).
func binTypeCode(t MsgType) byte {
	switch t {
	case TypeHello:
		return binHello
	case TypeHeartBeat:
		return binHeartBeat
	case TypeBid:
		return binBid
	case TypePrice:
		return binPrice
	case TypeBudgetReset:
		return binBudgetReset
	case TypeError:
		return binError
	default:
		return 0
	}
}

// binTypeOf maps a frame code back to the wire MsgType ("" = unknown).
func binTypeOf(code byte) MsgType {
	switch code {
	case binHello:
		return TypeHello
	case binHeartBeat:
		return TypeHeartBeat
	case binBid:
		return TypeBid
	case binPrice:
		return TypePrice
	case binBudgetReset:
		return TypeBudgetReset
	case binError:
		return TypeError
	default:
		return ""
	}
}

// maxInterned bounds the decoder's string intern table; rack IDs and tenant
// names are a small fixed vocabulary per session, so the cap only matters
// against a hostile peer streaming unique strings to grow the table.
const maxInterned = 1 << 12

// BinaryCodec reads and writes length-prefixed binary frames on a stream.
// It is the throughput path of the protocol: one buffered write per Send,
// and per-codec scratch (encode buffer, decode buffer, slice buffers, a
// string intern table) keeps both directions allocation-free in steady
// state. Recv's contract is the Wire one: returned slices and strings may
// reference codec scratch reused by the next Recv.
type BinaryCodec struct {
	r *bufio.Reader
	w io.Writer
	c io.Closer

	enc []byte // encode scratch; one frame appended then written whole
	dec []byte // decode scratch; holds the current frame's payload

	// hdr and rd live on the codec, not the stack: both have their address
	// taken inside Recv (ReadFull, the payload walker), which would escape
	// a local to the heap and cost one allocation per message.
	hdr [binFrameHeader]byte
	rd  binenc.Reader

	// Decode slice scratch, reused across Recv calls.
	racks  []string
	bids   []RackBid
	grants []Grant
	// names interns decoded strings so steady-state Recv of a known
	// vocabulary (tenant names, rack IDs) does not allocate.
	names map[string]string
}

// NewBinaryCodec wraps a connection with the binary framing.
func NewBinaryCodec(rw io.ReadWriteCloser) *BinaryCodec {
	return newBinaryCodec(bufio.NewReader(rw), rw)
}

// newBinaryCodec builds the codec over an explicit buffered reader (shared
// with the server's encoding-negotiation peek).
func newBinaryCodec(r *bufio.Reader, wc io.WriteCloser) *BinaryCodec {
	return &BinaryCodec{
		r:     r,
		w:     wc,
		c:     wc,
		names: make(map[string]string, 64),
	}
}

// Encoding identifies the codec as the binary wire encoding.
func (c *BinaryCodec) Encoding() Encoding { return WireBinary }

// Close closes the underlying stream.
func (c *BinaryCodec) Close() error { return c.c.Close() }

func appendStr(b []byte, s string) ([]byte, error) {
	b, err := binenc.AppendStr(b, s)
	if err != nil {
		return b, fmt.Errorf("%w: string field of %d bytes", ErrProtocol, len(s))
	}
	return b, nil
}

// Send writes one message as a single frame with one underlying write.
func (c *BinaryCodec) Send(m Message) error {
	code := binTypeCode(m.Type)
	if code == 0 {
		return fmt.Errorf("%w: message type %q has no binary encoding", ErrProtocol, m.Type)
	}
	b := append(c.enc[:0], binMagic, binVersion, code, 0, 0, 0)
	var err error
	if b, err = appendStr(b, m.Tenant); err != nil {
		return err
	}
	b = binenc.AppendU64(b, uint64(int64(m.Slot)))
	if b, err = appendStr(b, m.Trace); err != nil {
		return err
	}
	switch m.Type {
	case TypeHello:
		if len(m.Racks) > math.MaxUint16 {
			return fmt.Errorf("%w: %d racks in hello", ErrProtocol, len(m.Racks))
		}
		b = binenc.AppendU16(b, uint16(len(m.Racks)))
		for _, r := range m.Racks {
			if b, err = appendStr(b, r); err != nil {
				return err
			}
		}
	case TypeHeartBeat:
	case TypeBid:
		if len(m.Bids) > math.MaxUint16 {
			return fmt.Errorf("%w: %d bids in one message", ErrProtocol, len(m.Bids))
		}
		b = binenc.AppendU16(b, uint16(len(m.Bids)))
		for _, rb := range m.Bids {
			if b, err = appendStr(b, rb.Rack); err != nil {
				return err
			}
			b = binenc.AppendF64(b, rb.DMax)
			b = binenc.AppendF64(b, rb.QMin)
			b = binenc.AppendF64(b, rb.DMin)
			b = binenc.AppendF64(b, rb.QMax)
		}
	case TypePrice:
		b = binenc.AppendF64(b, m.Price)
		if b, err = appendGrants(b, m.Grants); err != nil {
			return err
		}
	case TypeBudgetReset:
		if b, err = appendGrants(b, m.Grants); err != nil {
			return err
		}
	case TypeError:
		if b, err = appendStr(b, m.Detail); err != nil {
			return err
		}
	}
	n := len(b) - binFrameHeader
	if n > MaxLineBytes {
		return fmt.Errorf("%w: %d-byte frame exceeds %d", ErrProtocol, n, MaxLineBytes)
	}
	b[3], b[4], b[5] = byte(n>>16), byte(n>>8), byte(n)
	c.enc = b // keep the grown scratch
	_, err = c.w.Write(b)
	return err
}

func appendGrants(b []byte, grants []Grant) ([]byte, error) {
	if len(grants) > math.MaxUint32 {
		return b, fmt.Errorf("%w: %d grants in one message", ErrProtocol, len(grants))
	}
	b = binenc.AppendU32(b, uint32(len(grants)))
	var err error
	for _, g := range grants {
		if b, err = appendStr(b, g.Rack); err != nil {
			return b, err
		}
		b = binenc.AppendF64(b, g.Watts)
	}
	return b, nil
}

// str decodes one string, interned through the codec's table so repeated
// vocabulary (tenant names, rack IDs) costs no allocation in steady state.
func (c *BinaryCodec) str(r *binenc.Reader) (string, error) {
	raw, err := r.Str16()
	if err != nil {
		return "", err
	}
	// The compiler elides the []byte→string conversion in a map index, so
	// a hit is allocation-free.
	if s, ok := c.names[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	if len(c.names) < maxInterned {
		c.names[s] = s
	}
	return s, nil
}

// Recv reads one frame. io.EOF signals a clean close before a frame starts;
// a partial frame is an ErrUnexpectedEOF. Returned slices reference codec
// scratch valid until the next Recv.
func (c *BinaryCodec) Recv() (Message, error) {
	hdr := &c.hdr
	if _, err := io.ReadFull(c.r, hdr[:1]); err != nil {
		return Message{}, err
	}
	if hdr[0] != binMagic {
		return Message{}, fmt.Errorf("%w: bad frame magic 0x%02X", ErrProtocol, hdr[0])
	}
	if _, err := io.ReadFull(c.r, hdr[1:]); err != nil {
		return Message{}, noEOF(err)
	}
	switch hdr[1] {
	case binVersion:
	case 1:
		return Message{}, errOlderPeer
	default:
		return Message{}, fmt.Errorf("%w: unsupported binary wire version %d", ErrProtocol, hdr[1])
	}
	typ := binTypeOf(hdr[2])
	if typ == "" {
		return Message{}, fmt.Errorf("%w: unknown binary message code %d", ErrProtocol, hdr[2])
	}
	n := int(hdr[3])<<16 | int(hdr[4])<<8 | int(hdr[5])
	if n > MaxLineBytes {
		return Message{}, fmt.Errorf("%w: %d-byte frame exceeds %d", ErrProtocol, n, MaxLineBytes)
	}
	if cap(c.dec) < n {
		c.dec = make([]byte, n)
	}
	c.dec = c.dec[:n]
	if _, err := io.ReadFull(c.r, c.dec); err != nil {
		return Message{}, noEOF(err)
	}
	m := Message{Type: typ}
	if err := c.decodePayload(&m); err != nil {
		if errors.Is(err, binenc.ErrTruncated) {
			err = fmt.Errorf("%w: truncated binary frame", ErrProtocol)
		}
		return Message{}, err
	}
	return m, nil
}

// decodePayload walks the frame payload held in c.dec into m (whose Type
// is set).
func (c *BinaryCodec) decodePayload(m *Message) error {
	c.rd = binenc.Reader{B: c.dec}
	r := &c.rd
	typ := m.Type
	var err error
	if m.Tenant, err = c.str(r); err != nil {
		return err
	}
	slot, err := r.U64()
	if err != nil {
		return err
	}
	m.Slot = int(int64(slot))
	// Trace fields are per-slot unique, so interning them would churn the
	// vocabulary table toward its cap; read raw instead.
	raw, err := r.Str16()
	if err != nil {
		return err
	}
	m.Trace = string(raw)
	switch typ {
	case TypeHello:
		cnt, err := r.U16()
		if err != nil {
			return err
		}
		c.racks = c.racks[:0]
		for i := 0; i < int(cnt); i++ {
			s, err := c.str(r)
			if err != nil {
				return err
			}
			c.racks = append(c.racks, s)
		}
		if cnt > 0 {
			m.Racks = c.racks
		}
	case TypeHeartBeat:
	case TypeBid:
		cnt, err := r.U16()
		if err != nil {
			return err
		}
		// Each bid is at least 2+4×8 bytes; reject counts the frame cannot
		// hold before allocating anything proportional to them.
		if err := r.Need(int(cnt) * (2 + 4*8)); err != nil {
			return err
		}
		c.bids = c.bids[:0]
		for i := 0; i < int(cnt); i++ {
			var rb RackBid
			if rb.Rack, err = c.str(r); err != nil {
				return err
			}
			if rb.DMax, err = r.F64(); err != nil {
				return err
			}
			if rb.QMin, err = r.F64(); err != nil {
				return err
			}
			if rb.DMin, err = r.F64(); err != nil {
				return err
			}
			if rb.QMax, err = r.F64(); err != nil {
				return err
			}
			c.bids = append(c.bids, rb)
		}
		if cnt > 0 {
			m.Bids = c.bids
		}
	case TypePrice:
		if m.Price, err = r.F64(); err != nil {
			return err
		}
		if m.Grants, err = c.readGrants(r); err != nil {
			return err
		}
	case TypeBudgetReset:
		if m.Grants, err = c.readGrants(r); err != nil {
			return err
		}
	case TypeError:
		if m.Detail, err = c.str(r); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s frame", ErrProtocol, r.Len(), typ)
	}
	return nil
}

func (c *BinaryCodec) readGrants(r *binenc.Reader) ([]Grant, error) {
	cnt, err := r.Count(2 + 8)
	if err != nil {
		return nil, err
	}
	c.grants = c.grants[:0]
	for i := 0; i < cnt; i++ {
		var g Grant
		if g.Rack, err = c.str(r); err != nil {
			return nil, err
		}
		if g.Watts, err = r.F64(); err != nil {
			return nil, err
		}
		c.grants = append(c.grants, g)
	}
	if len(c.grants) == 0 {
		return nil, nil
	}
	return c.grants, nil
}

// noEOF maps a mid-frame EOF to ErrUnexpectedEOF: only an EOF on a frame
// boundary is a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
