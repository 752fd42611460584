package binenc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestScalarsAndSectionsRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(-1), 1.0 / 3}
	nan := math.Float64frombits(0x7ff8000000000abc)
	b := AppendU16(nil, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|5)
	b = AppendInt(b, -42)
	b = AppendF64(b, nan)
	b, _ = AppendStr(b, "tenant")
	b, _ = AppendF64s(b, floats)
	b, _ = AppendF64s(b, nil)
	b, _ = AppendInts(b, []int{-1, 0, math.MaxInt64})

	r := Reader{B: b}
	if v, _ := r.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v, _ := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v, _ := r.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v, _ := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if v, _ := r.F64(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Errorf("F64 lost the NaN payload: %#x", math.Float64bits(v))
	}
	if v, _ := r.Str16(); string(v) != "tenant" {
		t.Errorf("Str16 = %q", v)
	}
	got, err := r.F64s(nil)
	if err != nil || len(got) != len(floats) {
		t.Fatalf("F64s = %v, %v", got, err)
	}
	for i := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] = %v, want %v bit for bit", i, got[i], floats[i])
		}
	}
	if empty, err := r.F64s(nil); err != nil || empty != nil {
		t.Errorf("empty section = %v, %v; want nil", empty, err)
	}
	if ints, _ := r.Ints(nil); !reflect.DeepEqual(ints, []int{-1, 0, math.MaxInt64}) {
		t.Errorf("Ints = %v", ints)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left over", r.Len())
	}
	if _, err := r.U8(); !errors.Is(err, ErrTruncated) {
		t.Errorf("read past the end: %v", err)
	}
}

// TestCountsAreCheckedBeforeSizing: a count the remaining bytes cannot
// back is ErrTruncated at the count, whatever its element size.
func TestCountsAreCheckedBeforeSizing(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	for name, read := range map[string]func(*Reader) error{
		"F64s":  func(r *Reader) error { _, err := r.F64s(nil); return err },
		"Ints":  func(r *Reader) error { _, err := r.Ints(nil); return err },
		"Names": func(r *Reader) error { _, err := r.ReadNames(nil); return err },
		"Count": func(r *Reader) error { _, err := r.Count(1); return err },
	} {
		r := Reader{B: huge}
		if allocs := testing.AllocsPerRun(1, func() { r.Off = 0; _ = read(&r) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations before refusing a 4 G count", name, allocs)
		}
		r.Off = 0
		if err := read(&r); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	if _, err := AppendStr(nil, strings.Repeat("x", 1<<16)); !errors.Is(err, ErrTooLong) {
		t.Errorf("64 KiB string: err = %v", err)
	}
}

func TestNamesTable(t *testing.T) {
	var names Names
	for round := 0; round < 2; round++ { // the second round reuses storage
		names.Reset()
		seq := []string{"a", "a", "", "b", "a", "", "b"}
		want := []uint32{0, 0, 1, 2, 0, 1, 2}
		for i, s := range seq {
			if got := names.Index(s); got != want[i] {
				t.Fatalf("round %d: Index(%q) #%d = %d, want %d", round, s, i, got, want[i])
			}
		}
		b, err := names.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := Reader{B: b}
		if got, err := r.ReadNames(nil); err != nil || !reflect.DeepEqual(got, []string{"a", "", "b"}) {
			t.Fatalf("table = %q, %v", got, err)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		names.Reset()
		names.Index("a")
		names.Index("b")
	}); allocs != 0 {
		t.Errorf("steady-state table reuse: %.1f allocs/op", allocs)
	}
}

func TestExtendReusesCapacity(t *testing.T) {
	b := make([]byte, 3, 64)
	whole, tail := Extend(b, 8)
	if len(whole) != 11 || len(tail) != 8 || &whole[3] != &tail[0] || &whole[0] != &b[0] {
		t.Fatalf("Extend within capacity: len %d/%d", len(whole), len(tail))
	}
	whole, tail = Extend(whole, 1000)
	if len(whole) != 1011 || len(tail) != 1000 || whole[2] != b[2] {
		t.Fatalf("Extend past capacity: len %d/%d", len(whole), len(tail))
	}
}
