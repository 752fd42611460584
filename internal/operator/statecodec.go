// Binary encoding of the durable operator state (DESIGN §4h): what the WAL
// stores for a slot (SlotCommit) and for a snapshot (Checkpoint). Built on
// the internal/binenc primitives: big-endian scalars, float64s as IEEE-754
// bits — so the Neumaier (sum, comp) pairs, payment rows and grant
// weights replay bit-identically without leaning on decimal formatting —
// count-prefixed sections, and tenant names written once per record. Both
// records carry one payment row per tenant: a slot's rows are what each
// tenant paid in that slot, a checkpoint's its cumulative account.
//
//	SlotCommit v1                          Checkpoint v1
//	u8   version (1)                       u8   version (1)
//	u8   flags (bit0: responder follows)   u8   flags (bit0: responder follows)
//	f64  revenue, energy_kwh               i64  slots, emergency_slots
//	i64  slots, emergency_slots            f64  revenue (sum, comp), energy
//	f64  spot_ups                               (sum, comp), unattributed
//	f64s spot_pdu                               (sum, comp), last_spot_ups
//	strs tenant names                      f64s last_spot_pdu
//	u32  n; n × (u32 name index,           u32  n; n × (str tenant,
//	          f64 amount), one per tenant            f64 sum, f64 comp)
//	[responder]                            [responder]
//
//	responder: u8 flags (bit0: suspended_ups); i64 calm_ups, start_ups,
//	acted, involuntary; f64 reclaimed_watts, guaranteed_watts; u32 n + n
//	bytes suspended_pdu; i64s calm_pdu, start_pdu; f64s last_grants.
//
// Decoders check every count against the bytes left before sizing anything
// from it and reject unknown versions, unknown flag bits and trailing
// bytes. A layout change bumps the version byte; there is no compatibility
// decoder (no deployed state directories exist).
package operator

import (
	"fmt"

	"spotdc/internal/binenc"
)

const (
	slotCommitVersion = 1
	checkpointVersion = 1

	flagResponder    = 1 << 0
	flagSuspendedUPS = 1 << 0
)

// AppendBinary appends the commit's WAL encoding to b. names is the
// writer's reusable tenant table (nil allocates one for the call); with it
// and a grown b, a steady-state encode allocates nothing.
func (c *SlotCommit) AppendBinary(b []byte, names *binenc.Names) ([]byte, error) {
	if names == nil {
		names = new(binenc.Names)
	}
	var flags byte
	if c.Responder != nil {
		flags |= flagResponder
	}
	b = append(b, slotCommitVersion, flags)
	b = binenc.AppendF64(b, c.Revenue)
	b = binenc.AppendF64(b, c.EnergyKWh)
	b = binenc.AppendInt(b, c.Slots)
	b = binenc.AppendInt(b, c.EmergencySlots)
	b = binenc.AppendF64(b, c.SpotUPS)
	b, err := binenc.AppendF64s(b, c.SpotPDU)
	if err != nil {
		return b, err
	}
	names.Reset()
	for i := range c.Payments {
		names.Index(c.Payments[i].Tenant)
	}
	if b, err = names.Append(b); err != nil {
		return b, fmt.Errorf("operator: slot commit tenant names: %w", err)
	}
	if b, err = binenc.AppendCount(b, len(c.Payments)); err != nil {
		return b, err
	}
	for i := range c.Payments {
		b = binenc.AppendU32(b, names.Index(c.Payments[i].Tenant))
		b = binenc.AppendF64(b, c.Payments[i].Amount)
	}
	if c.Responder != nil {
		b, err = c.Responder.appendBinary(b)
	}
	return b, err
}

// UnmarshalBinary decodes a commit written by AppendBinary into c, reusing
// c's slices and Responder (see SlotCommit for the borrowing rule).
func (c *SlotCommit) UnmarshalBinary(data []byte) error {
	r := binenc.Reader{B: data}
	if err := c.readBinary(&r); err != nil {
		return fmt.Errorf("operator: slot commit: %w", err)
	}
	return nil
}

func (c *SlotCommit) readBinary(r *binenc.Reader) error {
	flags, err := r.VersionFlags(slotCommitVersion, flagResponder)
	if err != nil {
		return err
	}
	if c.Revenue, err = r.F64(); err != nil {
		return err
	}
	if c.EnergyKWh, err = r.F64(); err != nil {
		return err
	}
	if c.Slots, err = r.Int(); err != nil {
		return err
	}
	if c.EmergencySlots, err = r.Int(); err != nil {
		return err
	}
	if c.SpotUPS, err = r.F64(); err != nil {
		return err
	}
	if c.SpotPDU, err = r.F64s(c.SpotPDU); err != nil {
		return err
	}
	names, err := r.ReadNames(nil)
	if err != nil {
		return err
	}
	n, err := r.Count(4 + 8)
	if err != nil {
		return err
	}
	c.Payments = c.Payments[:0]
	for i := 0; i < n; i++ {
		idx, _ := r.U32()
		amount, _ := r.F64()
		if int(idx) >= len(names) {
			return fmt.Errorf("payment %d names tenant %d of %d", i, idx, len(names))
		}
		c.Payments = append(c.Payments, PaymentDelta{Tenant: names[idx], Amount: amount})
	}
	if c.Responder, err = readResponder(r, flags&flagResponder != 0, c.Responder); err != nil {
		return err
	}
	return r.End()
}

// AppendBinary appends the checkpoint's snapshot encoding to b.
func (cp *Checkpoint) AppendBinary(b []byte) ([]byte, error) {
	var flags byte
	if cp.Responder != nil {
		flags |= flagResponder
	}
	b = append(b, checkpointVersion, flags)
	b = binenc.AppendInt(b, cp.Slots)
	b = binenc.AppendInt(b, cp.EmergencySlots)
	for _, acc := range [...]NeumaierState{cp.SpotRevenue, cp.SpotEnergyKWh, cp.Unattributed} {
		b = binenc.AppendF64(b, acc.Sum)
		b = binenc.AppendF64(b, acc.Comp)
	}
	b = binenc.AppendF64(b, cp.LastSpotUPS)
	b, err := binenc.AppendF64s(b, cp.LastSpotPDU)
	if err != nil {
		return b, err
	}
	if b, err = binenc.AppendCount(b, len(cp.Payments)); err != nil {
		return b, err
	}
	for _, p := range cp.Payments {
		if b, err = binenc.AppendStr(b, p.Tenant); err != nil {
			return b, fmt.Errorf("operator: checkpoint tenant name of %d bytes: %w", len(p.Tenant), err)
		}
		b = binenc.AppendF64(b, p.Paid.Sum)
		b = binenc.AppendF64(b, p.Paid.Comp)
	}
	if cp.Responder != nil {
		b, err = cp.Responder.appendBinary(b)
	}
	return b, err
}

// UnmarshalBinary decodes a checkpoint written by AppendBinary. The result
// owns its slices.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	r := binenc.Reader{B: data}
	*cp = Checkpoint{}
	if err := cp.readBinary(&r); err != nil {
		return fmt.Errorf("operator: checkpoint: %w", err)
	}
	return nil
}

func (cp *Checkpoint) readBinary(r *binenc.Reader) error {
	flags, err := r.VersionFlags(checkpointVersion, flagResponder)
	if err != nil {
		return err
	}
	if cp.Slots, err = r.Int(); err != nil {
		return err
	}
	if cp.EmergencySlots, err = r.Int(); err != nil {
		return err
	}
	for _, acc := range [...]*NeumaierState{&cp.SpotRevenue, &cp.SpotEnergyKWh, &cp.Unattributed} {
		if acc.Sum, err = r.F64(); err != nil {
			return err
		}
		if acc.Comp, err = r.F64(); err != nil {
			return err
		}
	}
	if cp.LastSpotUPS, err = r.F64(); err != nil {
		return err
	}
	if cp.LastSpotPDU, err = r.F64s(nil); err != nil {
		return err
	}
	n, err := r.Count(2 + 8 + 8)
	if err != nil {
		return err
	}
	if n > 0 {
		cp.Payments = make([]TenantPayment, 0, n)
	}
	for i := 0; i < n; i++ {
		var p TenantPayment
		raw, err := r.Str16()
		if err != nil {
			return err
		}
		p.Tenant = string(raw)
		if p.Paid.Sum, err = r.F64(); err != nil {
			return err
		}
		if p.Paid.Comp, err = r.F64(); err != nil {
			return err
		}
		cp.Payments = append(cp.Payments, p)
	}
	if cp.Responder, err = readResponder(r, flags&flagResponder != 0, nil); err != nil {
		return err
	}
	return r.End()
}

func (rc *ResponderCheckpoint) appendBinary(b []byte) ([]byte, error) {
	var flags byte
	if rc.SuspendedUPS {
		flags |= flagSuspendedUPS
	}
	b = append(b, flags)
	b = binenc.AppendInt(b, rc.CalmUPS)
	b = binenc.AppendInt(b, rc.StartUPS)
	b = binenc.AppendInt(b, rc.Acted)
	b = binenc.AppendInt(b, rc.Involuntary)
	b = binenc.AppendF64(b, rc.ReclaimedWatts)
	b = binenc.AppendF64(b, rc.GuaranteedWatts)
	b, err := binenc.AppendCount(b, len(rc.SuspendedPDU))
	if err != nil {
		return b, err
	}
	for _, s := range rc.SuspendedPDU {
		v := byte(0)
		if s {
			v = 1
		}
		b = append(b, v)
	}
	if b, err = binenc.AppendInts(b, rc.CalmPDU); err != nil {
		return b, err
	}
	if b, err = binenc.AppendInts(b, rc.StartPDU); err != nil {
		return b, err
	}
	return binenc.AppendF64s(b, rc.LastGrants)
}

// readResponder decodes the responder section when present, into into (or
// a fresh value when into is nil); an absent section yields nil.
func readResponder(r *binenc.Reader, present bool, into *ResponderCheckpoint) (*ResponderCheckpoint, error) {
	if !present {
		return nil, nil
	}
	rc := into
	if rc == nil {
		rc = new(ResponderCheckpoint)
	}
	flags, err := r.U8()
	if err != nil {
		return nil, err
	}
	if flags&^flagSuspendedUPS != 0 {
		return nil, fmt.Errorf("unknown responder flag bits %#02x", flags&^flagSuspendedUPS)
	}
	rc.SuspendedUPS = flags&flagSuspendedUPS != 0
	for _, v := range [...]*int{&rc.CalmUPS, &rc.StartUPS, &rc.Acted, &rc.Involuntary} {
		if *v, err = r.Int(); err != nil {
			return nil, err
		}
	}
	if rc.ReclaimedWatts, err = r.F64(); err != nil {
		return nil, err
	}
	if rc.GuaranteedWatts, err = r.F64(); err != nil {
		return nil, err
	}
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	raw, _ := r.Take(n)
	rc.SuspendedPDU = rc.SuspendedPDU[:0]
	for i, v := range raw {
		if v > 1 {
			return nil, fmt.Errorf("suspended_pdu[%d] = %d, want 0 or 1", i, v)
		}
		rc.SuspendedPDU = append(rc.SuspendedPDU, v == 1)
	}
	if rc.CalmPDU, err = r.Ints(rc.CalmPDU); err != nil {
		return nil, err
	}
	if rc.StartPDU, err = r.Ints(rc.StartPDU); err != nil {
		return nil, err
	}
	if rc.LastGrants, err = r.F64s(rc.LastGrants); err != nil {
		return nil, err
	}
	return rc, nil
}
