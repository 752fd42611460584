// The v3 journal line (DESIGN §4e): scalars appended by hand as JSON, the
// five bulk arrays as one binary section under "packed".
//
//	{"slot":7,"ts_us":…,"price":0.05,…,"ups_spot":150,"packed":"<base64>"}\n
//
// Section layout (internal/binenc conventions):
//
//	u8   version (1)
//	strs tenant names                          (written once per event)
//	u32  n; n × (u32 rack, u32 name index,
//	          f64 dmax, dmin, qmin, qmax)      bid_set
//	u32  n; n × (u32 rack, f64 watts)          grant_set
//	f64s pdu_spot, rack_watts, other_pdu_watts
//
// Floats are IEEE-754 bits, so replay's bit-identity does not depend on
// shortest-round-trip decimal formatting, and -0, denormals and NaN
// payloads survive. An empty array decodes to nil, as an omitted JSON key
// does; an event with all five empty carries no section and its line is
// plain JSON.
package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"spotdc/internal/binenc"
)

const (
	sectionVersion = 1
	bidRecordSize  = 4 + 4 + 4*8
	grantSize      = 4 + 8
)

// appendLine builds ev's line into j.line. Keys, order and omitempty rules
// mirror SlotEvent's struct tags (TestJournalLineMatchesStructTags).
func (j *Journal) appendLine(ev *SlotEvent) error {
	b := append(j.line[:0], `{"slot":`...)
	b = strconv.AppendInt(b, int64(ev.Slot), 10)
	b = appendIntKey(b, "ts_us", ev.UnixMicros, true)
	var err error
	num := func(key string, v float64, omitZero bool) {
		if err != nil || (omitZero && math.Float64bits(v) == 0) {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("metrics: journal slot %d: %s is %v, which JSON cannot carry", ev.Slot, key, v)
			return
		}
		b = appendKey(b, key)
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	num("price", ev.Price, false)
	num("sold_watts", ev.SoldWatts, false)
	num("revenue", ev.Revenue, false)
	b = appendIntKey(b, "grants", int64(ev.Grants), false)
	b = appendIntKey(b, "bids", int64(ev.Bids), false)
	b = appendBoolKey(b, "degraded", ev.Degraded)
	b = appendStrKey(b, "err", ev.Err)
	b = appendIntKey(b, "clear_us", ev.ClearMicros, false)
	b = appendIntKey(b, "fault_drops", ev.FaultDrops, true)
	b = appendIntKey(b, "fault_delays", ev.FaultDelays, true)
	b = appendIntKey(b, "fault_severs", ev.FaultSevers, true)
	b = appendStrKey(b, "algorithm", ev.Algorithm)
	b = appendIntKey(b, "evaluations", int64(ev.Evaluations), true)
	num("ups_spot", ev.UPSSpot, true)
	b = appendBoolKey(b, "inputs_truncated", ev.InputsTruncated)
	b = appendIntsKey(b, "suspended_pdus", ev.SuspendedPDUs)
	b = appendBoolKey(b, "suspended_ups", ev.SuspendedUPS)
	if err == nil && len(ev.Reclaims) > 0 {
		// Emergency records are rare and small: reflection is fine here.
		var raw []byte
		if raw, err = json.Marshal(ev.Reclaims); err == nil {
			b = append(appendKey(b, "reclaims"), raw...)
		}
	}
	b = appendIntsKey(b, "restored_pdus", ev.RestoredPDUs)
	b = appendBoolKey(b, "restored_ups", ev.RestoredUPS)
	if err == nil && len(ev.BidSet)+len(ev.GrantSet)+len(ev.PDUSpot)+len(ev.RackWatts)+len(ev.OtherPDUWatts) > 0 {
		if j.sec, err = appendSection(j.sec[:0], ev, &j.names); err == nil {
			b = append(appendKey(b, "packed"), '"')
			b = base64.StdEncoding.AppendEncode(b, j.sec)
			b = append(b, '"')
		}
	}
	j.line = append(b, '}', '\n')
	return err
}

func appendKey(b []byte, key string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

func appendIntKey(b []byte, key string, v int64, omitZero bool) []byte {
	if omitZero && v == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, key), v, 10)
}

func appendBoolKey(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(appendKey(b, key), "true"...)
}

func appendStrKey(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return AppendJSONString(appendKey(b, key), v)
}

func appendIntsKey(b []byte, key string, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(appendKey(b, key), '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string, escaping what JSON requires
// (quotes, backslash, control bytes). Shared by the hand-built journal
// lines here and in internal/otrace.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// rackU32 narrows a rack index to the section's u32 field.
func rackU32(rack int) (uint32, error) {
	if rack < 0 || uint64(rack) > math.MaxUint32 {
		return 0, fmt.Errorf("metrics: journal: rack index %d outside the packed section's range", rack)
	}
	return uint32(rack), nil
}

// appendSection packs ev's bulk arrays onto b.
func appendSection(b []byte, ev *SlotEvent, names *binenc.Names) ([]byte, error) {
	b = append(b, sectionVersion)
	names.Reset()
	for i := range ev.BidSet {
		names.Index(ev.BidSet[i].Tenant)
	}
	b, err := names.Append(b)
	if err != nil {
		return b, fmt.Errorf("metrics: journal: tenant names: %w", err)
	}
	if b, err = binenc.AppendCount(b, len(ev.BidSet)); err != nil {
		return b, err
	}
	b, p := binenc.Extend(b, bidRecordSize*len(ev.BidSet))
	for i := range ev.BidSet {
		r := &ev.BidSet[i]
		rack, err := rackU32(r.Rack)
		if err != nil {
			return b, err
		}
		q := p[i*bidRecordSize : (i+1)*bidRecordSize]
		binary.BigEndian.PutUint32(q[0:], rack)
		binary.BigEndian.PutUint32(q[4:], names.Index(r.Tenant))
		binary.BigEndian.PutUint64(q[8:], math.Float64bits(r.DMax))
		binary.BigEndian.PutUint64(q[16:], math.Float64bits(r.DMin))
		binary.BigEndian.PutUint64(q[24:], math.Float64bits(r.QMin))
		binary.BigEndian.PutUint64(q[32:], math.Float64bits(r.QMax))
	}
	if b, err = binenc.AppendCount(b, len(ev.GrantSet)); err != nil {
		return b, err
	}
	b, p = binenc.Extend(b, grantSize*len(ev.GrantSet))
	for i, g := range ev.GrantSet {
		rack, err := rackU32(g.Rack)
		if err != nil {
			return b, err
		}
		q := p[i*grantSize : (i+1)*grantSize]
		binary.BigEndian.PutUint32(q[0:], rack)
		binary.BigEndian.PutUint64(q[4:], math.Float64bits(g.Watts))
	}
	for _, vs := range [...][]float64{ev.PDUSpot, ev.RackWatts, ev.OtherPDUWatts} {
		if b, err = binenc.AppendF64s(b, vs); err != nil {
			return b, err
		}
	}
	return b, nil
}

// unpackSection decodes a packed section into ev's bulk arrays. A line
// that carries both a section and expanded arrays is ambiguous and
// rejected. Counts are checked against the section's length before
// anything is allocated from them.
func unpackSection(data []byte, ev *SlotEvent) error {
	if ev.BidSet != nil || ev.GrantSet != nil || ev.PDUSpot != nil || ev.RackWatts != nil || ev.OtherPDUWatts != nil {
		return fmt.Errorf("line carries both a packed section and expanded arrays")
	}
	if err := readSection(data, ev); err != nil {
		return fmt.Errorf("packed section: %w", err)
	}
	return nil
}

func readSection(data []byte, ev *SlotEvent) error {
	r := binenc.Reader{B: data}
	v, err := r.U8()
	if err != nil {
		return err
	}
	if v != sectionVersion {
		return fmt.Errorf("unsupported version %d (this build reads %d)", v, sectionVersion)
	}
	names, err := r.ReadNames(nil)
	if err != nil {
		return err
	}
	n, err := r.Count(bidRecordSize)
	if err != nil {
		return err
	}
	if n > 0 {
		ev.BidSet = make([]BidRecord, n)
	}
	p, _ := r.Take(n * bidRecordSize)
	for i := range ev.BidSet {
		q := p[i*bidRecordSize : (i+1)*bidRecordSize]
		idx := binary.BigEndian.Uint32(q[4:])
		if int(idx) >= len(names) {
			return fmt.Errorf("bid %d names tenant %d of %d", i, idx, len(names))
		}
		ev.BidSet[i] = BidRecord{
			Rack:   int(binary.BigEndian.Uint32(q[0:])),
			Tenant: names[idx],
			DMax:   math.Float64frombits(binary.BigEndian.Uint64(q[8:])),
			DMin:   math.Float64frombits(binary.BigEndian.Uint64(q[16:])),
			QMin:   math.Float64frombits(binary.BigEndian.Uint64(q[24:])),
			QMax:   math.Float64frombits(binary.BigEndian.Uint64(q[32:])),
		}
	}
	if n, err = r.Count(grantSize); err != nil {
		return err
	}
	if n > 0 {
		ev.GrantSet = make([]GrantRecord, n)
	}
	p, _ = r.Take(n * grantSize)
	for i := range ev.GrantSet {
		q := p[i*grantSize : (i+1)*grantSize]
		ev.GrantSet[i] = GrantRecord{
			Rack:  int(binary.BigEndian.Uint32(q[0:])),
			Watts: math.Float64frombits(binary.BigEndian.Uint64(q[4:])),
		}
	}
	for _, dst := range [...]*[]float64{&ev.PDUSpot, &ev.RackWatts, &ev.OtherPDUWatts} {
		if *dst, err = r.F64s(nil); err != nil {
			return err
		}
	}
	return r.End()
}
