// Package binenc holds the byte-level primitives every SpotDC binary format
// is built from — the wire frames (internal/proto), the WAL slot record and
// snapshot (internal/proto, internal/operator) and the slot journal's packed
// section (internal/metrics): append-style encoders into a caller-owned
// buffer, a bounds-checked reader, count-prefixed float64 sections and a
// per-record string table.
//
// Conventions: scalars are big-endian, float64s are their IEEE-754 bits (so
// -0, denormals and NaN payloads survive), strings are a u16 length plus raw
// bytes, sections are a u32 count plus fixed-width elements. A reader checks
// every count against the bytes that remain before anything is sized from
// it, so hostile input costs an error, never an allocation or a panic.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated reports input that ends before the value being read.
var ErrTruncated = errors.New("binenc: truncated input")

// ErrTooLong reports a string or section too large for its length prefix.
var ErrTooLong = errors.New("binenc: value exceeds its length prefix")

func AppendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func AppendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendInt appends a Go int as a two's-complement 64-bit value.
func AppendInt(b []byte, v int) []byte { return AppendU64(b, uint64(int64(v))) }

func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr appends a u16-length-prefixed string.
func AppendStr(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return b, ErrTooLong
	}
	return append(AppendU16(b, uint16(len(s))), s...), nil
}

// AppendCount appends a section's u32 element count.
func AppendCount(b []byte, n int) ([]byte, error) {
	if uint64(n) > math.MaxUint32 {
		return b, ErrTooLong
	}
	return AppendU32(b, uint32(n)), nil
}

// Extend grows b by n bytes and returns the whole slice plus the new tail,
// for fixed-width sections written with one bounds check per element.
func Extend(b []byte, n int) (whole, tail []byte) {
	off := len(b)
	if cap(b)-off < n {
		b = append(b, make([]byte, n)...)
	} else {
		b = b[:off+n]
	}
	return b, b[off:]
}

// AppendF64s appends a count-prefixed float64 section.
func AppendF64s(b []byte, vs []float64) ([]byte, error) {
	b, err := AppendCount(b, len(vs))
	if err != nil {
		return b, err
	}
	b, tail := Extend(b, 8*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(tail[8*i:], math.Float64bits(v))
	}
	return b, nil
}

// AppendInts appends a count-prefixed section of 64-bit ints.
func AppendInts(b []byte, vs []int) ([]byte, error) {
	b, err := AppendCount(b, len(vs))
	if err != nil {
		return b, err
	}
	for _, v := range vs {
		b = AppendInt(b, v)
	}
	return b, nil
}

// Reader walks a byte slice with bounds checking. The zero value reads
// nothing; set B (and leave Off zero) to start.
type Reader struct {
	B   []byte
	Off int
}

// Len returns how many bytes remain.
func (r *Reader) Len() int { return len(r.B) - r.Off }

// Need reports ErrTruncated unless n more bytes remain. Decoders call it
// with count×(minimum element size) before sizing anything from a count.
func (r *Reader) Need(n int) error {
	if n < 0 || len(r.B)-r.Off < n {
		return ErrTruncated
	}
	return nil
}

func (r *Reader) U8() (byte, error) {
	if err := r.Need(1); err != nil {
		return 0, err
	}
	v := r.B[r.Off]
	r.Off++
	return v, nil
}

func (r *Reader) U16() (uint16, error) {
	if err := r.Need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.B[r.Off:])
	r.Off += 2
	return v, nil
}

func (r *Reader) U32() (uint32, error) {
	if err := r.Need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.B[r.Off:])
	r.Off += 4
	return v, nil
}

func (r *Reader) U64() (uint64, error) {
	if err := r.Need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.B[r.Off:])
	r.Off += 8
	return v, nil
}

// Int reads a value written by AppendInt.
func (r *Reader) Int() (int, error) {
	v, err := r.U64()
	return int(int64(v)), err
}

func (r *Reader) F64() (float64, error) {
	v, err := r.U64()
	return math.Float64frombits(v), err
}

// VersionFlags reads the version and flags bytes a versioned payload opens
// with, refusing any version but the one given and any flag bit outside
// knownFlags — a newer writer's payload is an error, not a guess.
func (r *Reader) VersionFlags(version, knownFlags byte) (flags byte, err error) {
	v, err := r.U8()
	if err != nil {
		return 0, err
	}
	if v != version {
		return 0, fmt.Errorf("unsupported encoding version %d (this build reads %d)", v, version)
	}
	if flags, err = r.U8(); err != nil {
		return 0, err
	}
	if flags&^knownFlags != 0 {
		return 0, fmt.Errorf("unknown flag bits %#02x", flags&^knownFlags)
	}
	return flags, nil
}

// End reports an error unless the input has been consumed exactly: bytes
// after the last field mean the payload is not what the decoder thinks.
func (r *Reader) End() error {
	if r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Len())
	}
	return nil
}

// Take returns the next n bytes, aliasing the reader's slice.
func (r *Reader) Take(n int) ([]byte, error) {
	if err := r.Need(n); err != nil {
		return nil, err
	}
	p := r.B[r.Off : r.Off+n]
	r.Off += n
	return p, nil
}

// Str16 returns the raw bytes of a u16-length-prefixed string, aliasing
// the reader's slice (callers intern or copy).
func (r *Reader) Str16() ([]byte, error) {
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	return r.Take(int(n))
}

// Count reads a section's element count and verifies the remaining bytes
// can hold that many elements of at least minSize bytes each.
func (r *Reader) Count(minSize int) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minSize) > uint64(r.Len()) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// F64s reads a count-prefixed float64 section into dst[:0] (nil stays nil
// for an empty section).
func (r *Reader) F64s(dst []float64) ([]float64, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], n)
	p, _ := r.Take(8 * n)
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.BigEndian.Uint64(p[8*i:])))
	}
	return dst, nil
}

// Ints reads a section written by AppendInts into dst[:0].
func (r *Reader) Ints(dst []int) ([]int, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		v, _ := r.Int()
		dst = append(dst, v)
	}
	return dst, nil
}

// Names is a per-record string table: a record that repeats a small
// vocabulary (tenant names) writes each distinct string once and refers to
// it by index. The table and its map are reused across records, so a
// steady-state encode allocates nothing.
type Names struct {
	idx  map[string]uint32
	list []string
	// last short-circuits runs of one name, the common case: allocations
	// and bids arrive grouped by tenant.
	last    string
	lastIdx uint32
	primed  bool
}

// Reset empties the table, keeping its storage.
func (t *Names) Reset() {
	clear(t.idx)
	t.list = t.list[:0]
	t.last, t.lastIdx, t.primed = "", 0, false
}

// Index returns s's index, adding it to the table when new.
func (t *Names) Index(s string) uint32 {
	if t.primed && s == t.last {
		return t.lastIdx
	}
	i, ok := t.idx[s]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[string]uint32)
		}
		i = uint32(len(t.list))
		t.idx[s] = i
		t.list = append(t.list, s)
	}
	t.last, t.lastIdx, t.primed = s, i, true
	return i
}

// Append writes the table as a count-prefixed list of strings.
func (t *Names) Append(b []byte) ([]byte, error) {
	b, err := AppendCount(b, len(t.list))
	if err != nil {
		return b, err
	}
	for _, s := range t.list {
		if b, err = AppendStr(b, s); err != nil {
			return b, err
		}
	}
	return b, nil
}

// ReadNames reads a table written by Names.Append into dst[:0].
func (r *Reader) ReadNames(dst []string) ([]string, error) {
	n, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		raw, err := r.Str16()
		if err != nil {
			return nil, err
		}
		dst = append(dst, string(raw))
	}
	return dst, nil
}
