// Durable operator state (checkpoint/restore + per-slot commit records).
//
// The operator's books are compensated accumulators, so "restore" has a
// stricter contract than copying totals: a checkpoint captures every
// Neumaier (sum, comp) pair, and per-slot commits re-Add the exact dollar
// and kWh terms RunSlot folded in, in the original order. A crash restored
// from checkpoint N and replayed through slot K therefore reaches totals
// bit-identical to an uninterrupted run — which is what lets the crash
// harness compare final checkpoints with DeepEqual, not a tolerance.
package operator

import (
	"fmt"
	"sort"

	"spotdc/internal/power"
	"spotdc/internal/stats"
)

// NeumaierState is the serializable form of a compensated accumulator. The
// WAL stores both terms as IEEE-754 bits (statecodec.go), so Export → encode
// → decode → Restore reproduces the bit pattern by construction; the JSON
// tags remain for diagnostics and callers that marshal a checkpoint
// themselves (shortest-representation decimals also round-trip exactly).
type NeumaierState struct {
	Sum  float64 `json:"sum"`
	Comp float64 `json:"comp"`
}

// ExportNeumaier captures an accumulator's internals for checkpointing.
func ExportNeumaier(n stats.Neumaier) NeumaierState {
	sum, comp := n.State()
	return NeumaierState{Sum: sum, Comp: comp}
}

// Restore rebuilds the accumulator this state was exported from.
func (s NeumaierState) Restore() stats.Neumaier {
	return stats.NeumaierFromState(s.Sum, s.Comp)
}

// TenantPayment is one tenant's cumulative spot payments in a checkpoint.
type TenantPayment struct {
	Tenant string        `json:"tenant"`
	Paid   NeumaierState `json:"paid"`
}

// ResponderCheckpoint captures the emergency responder's durable state: the
// per-element suspension flags, recovery (calm) counters, suspension start
// clocks, the previous slot's grant weights, and the running reclaim
// totals. Per-slot transients (lastReclaims/lastRestores, the applied-
// suspension scratch) are recomputed on the next slot; hook-failure
// diagnostics are process-local and deliberately not persisted.
type ResponderCheckpoint struct {
	SuspendedPDU []bool    `json:"suspended_pdu"`
	CalmPDU      []int     `json:"calm_pdu"`
	StartPDU     []int     `json:"start_pdu"`
	SuspendedUPS bool      `json:"suspended_ups"`
	CalmUPS      int       `json:"calm_ups"`
	StartUPS     int       `json:"start_ups"`
	LastGrants   []float64 `json:"last_grants"`

	Acted           int     `json:"acted"`
	ReclaimedWatts  float64 `json:"reclaimed_watts"`
	GuaranteedWatts float64 `json:"guaranteed_watts"`
	Involuntary     int     `json:"involuntary"`
}

// Checkpoint is a full snapshot of the operator's durable state: market
// position, money and energy books (with compensation terms), the last
// predicted spot capacity, and the responder state when the emergency loop
// is enabled. Payments are sorted by tenant so encoding is deterministic.
type Checkpoint struct {
	Slots          int             `json:"slots"`
	EmergencySlots int             `json:"emergency_slots"`
	SpotRevenue    NeumaierState   `json:"spot_revenue"`
	SpotEnergyKWh  NeumaierState   `json:"spot_energy_kwh"`
	Unattributed   NeumaierState   `json:"unattributed"`
	Payments       []TenantPayment `json:"payments,omitempty"`
	LastSpotPDU    []float64       `json:"last_spot_pdu,omitempty"`
	LastSpotUPS    float64         `json:"last_spot_ups"`

	Responder *ResponderCheckpoint `json:"responder,omitempty"`
}

// PaymentDelta is one slot's payment row for one tenant: the exact $ RunSlot
// folded into the tenant's account with a single Add. An empty tenant names
// the unattributed book.
type PaymentDelta struct {
	Tenant string  `json:"tenant,omitempty"`
	Amount float64 `json:"amount"`
}

// SlotCommit is the WAL record for one committed slot: the accumulator
// deltas (replayed as Adds, preserving compensation), the post-slot
// absolute counters, the slot's predicted spot (restoring the operator's
// last prediction), and the responder's post-slot state. Payments carry one row per tenant that
// was granted capacity, in the order RunSlot booked them (compensated
// summation is order-sensitive), so a record's size grows with tenants, not
// racks.
//
// A SlotCommit returned by LastSlotCommit or filled by UnmarshalBinary
// borrows its slices (and Responder) from scratch that the next such call,
// or the next RunSlot, overwrites: encode or apply it before the next slot,
// and copy anything
// kept longer. Both consumers do — the WAL writer serializes before it
// returns, ApplySlotCommit copies what it keeps.
type SlotCommit struct {
	Revenue        float64        `json:"revenue"`
	EnergyKWh      float64        `json:"energy_kwh"`
	Payments       []PaymentDelta `json:"payments,omitempty"`
	Slots          int            `json:"slots"`
	EmergencySlots int            `json:"emergency_slots"`
	SpotPDU        []float64      `json:"spot_pdu,omitempty"`
	SpotUPS        float64        `json:"spot_ups"`

	Responder *ResponderCheckpoint `json:"responder,omitempty"`
}

// checkpointInto copies the responder's durable state into cp, reusing
// cp's slices (a zero cp allocates them once).
func (rs *responderState) checkpointInto(cp *ResponderCheckpoint) *ResponderCheckpoint {
	*cp = ResponderCheckpoint{
		SuspendedPDU: append(cp.SuspendedPDU[:0], rs.suspendedPDU...),
		CalmPDU:      append(cp.CalmPDU[:0], rs.calmPDU...),
		StartPDU:     append(cp.StartPDU[:0], rs.startPDU...),
		SuspendedUPS: rs.suspendedUPS,
		CalmUPS:      rs.calmUPS,
		StartUPS:     rs.startUPS,
		LastGrants:   append(cp.LastGrants[:0], rs.lastGrants...),

		Acted:           rs.acted,
		ReclaimedWatts:  rs.reclaimedWatts,
		GuaranteedWatts: rs.guaranteedWatts,
		Involuntary:     rs.involuntary,
	}
	return cp
}

func (rs *responderState) restore(cp *ResponderCheckpoint) error {
	if len(cp.SuspendedPDU) != len(rs.suspendedPDU) ||
		len(cp.CalmPDU) != len(rs.calmPDU) ||
		len(cp.StartPDU) != len(rs.startPDU) ||
		len(cp.LastGrants) != len(rs.lastGrants) {
		return fmt.Errorf("operator: responder checkpoint sized for %d PDUs / %d racks, topology has %d / %d",
			len(cp.SuspendedPDU), len(cp.LastGrants), len(rs.suspendedPDU), len(rs.lastGrants))
	}
	copy(rs.suspendedPDU, cp.SuspendedPDU)
	copy(rs.calmPDU, cp.CalmPDU)
	copy(rs.startPDU, cp.StartPDU)
	rs.suspendedUPS = cp.SuspendedUPS
	rs.calmUPS = cp.CalmUPS
	rs.startUPS = cp.StartUPS
	copy(rs.lastGrants, cp.LastGrants)
	rs.acted = cp.Acted
	rs.reclaimedWatts = cp.ReclaimedWatts
	rs.guaranteedWatts = cp.GuaranteedWatts
	rs.involuntary = cp.Involuntary
	rs.lastReclaims = rs.lastReclaims[:0]
	rs.lastRestores = rs.lastRestores[:0]
	rs.appliedPDU = rs.appliedPDU[:0]
	rs.appliedUPS = false
	return nil
}

// Checkpoint captures the operator's durable state. The result owns its
// slices and stays valid across further slots.
func (op *Operator) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Slots:          op.slots,
		EmergencySlots: op.emergencySlots,
		SpotRevenue:    ExportNeumaier(op.spotRevenue),
		SpotEnergyKWh:  ExportNeumaier(op.spotEnergyKWh),
		Unattributed:   ExportNeumaier(op.unattributed),
		LastSpotPDU:    append([]float64(nil), op.lastSpot.PDUWatts...),
		LastSpotUPS:    op.lastSpot.UPSWatts,
	}
	if len(op.payments) > 0 {
		cp.Payments = make([]TenantPayment, 0, len(op.payments))
		for tenant, acc := range op.payments {
			cp.Payments = append(cp.Payments, TenantPayment{Tenant: tenant, Paid: ExportNeumaier(*acc)})
		}
		sort.Slice(cp.Payments, func(i, j int) bool { return cp.Payments[i].Tenant < cp.Payments[j].Tenant })
	}
	if op.responder != nil {
		cp.Responder = op.responder.checkpointInto(new(ResponderCheckpoint))
	}
	return cp
}

// Restore overwrites the operator's durable state from a checkpoint taken
// by an operator with the same topology and configuration. A checkpoint
// carrying responder state requires Config.Emergency to be enabled (and
// vice versa a responder-less checkpoint resets an enabled responder to its
// fresh state — the suspensions simply predate the emergency feature).
func (op *Operator) Restore(cp Checkpoint) error {
	if n := len(cp.LastSpotPDU); n != 0 && n != len(op.topo.PDUs) {
		return fmt.Errorf("operator: checkpoint spot sized for %d PDUs, topology has %d", n, len(op.topo.PDUs))
	}
	if cp.Responder != nil && op.responder == nil {
		return fmt.Errorf("operator: checkpoint carries responder state but the emergency responder is disabled")
	}
	if op.responder != nil {
		if cp.Responder != nil {
			if err := op.responder.restore(cp.Responder); err != nil {
				return err
			}
		} else {
			op.responder = newResponderState(op.responder.cfg, op.topo)
		}
	}
	op.slots = cp.Slots
	op.emergencySlots = cp.EmergencySlots
	op.spotRevenue = cp.SpotRevenue.Restore()
	op.spotEnergyKWh = cp.SpotEnergyKWh.Restore()
	op.unattributed = cp.Unattributed.Restore()
	op.payments = make(map[string]*stats.Neumaier, len(cp.Payments))
	for _, p := range cp.Payments {
		acc := p.Paid.Restore()
		op.payments[p.Tenant] = &acc
	}
	op.lastSpot = power.Spot{
		PDUWatts: append([]float64(nil), cp.LastSpotPDU...),
		UPSWatts: cp.LastSpotUPS,
	}
	return nil
}

// LastSlotCommit builds the WAL record for the slot that produced out,
// the most recent successful RunSlot: its payments are the rows RunSlot
// settled, so a replayed Add reproduces the accumulation bit-for-bit. Call
// it after RunSlot and (when the emergency loop runs) after
// ObserveEmergencies, so the absolute counters and responder state are
// post-slot. The result borrows out's spot slice and operator-owned
// scratch (see SlotCommit): it is valid until the next RunSlot or
// LastSlotCommit, and building it allocates nothing.
func (op *Operator) LastSlotCommit(out SlotOutcome, slotHours float64) SlotCommit {
	c := SlotCommit{
		Revenue:        out.Result.RevenueRate * slotHours,
		EnergyKWh:      out.Result.TotalWatts / 1000 * slotHours,
		Slots:          op.slots,
		EmergencySlots: op.emergencySlots,
		SpotPDU:        out.Spot.PDUWatts,
		SpotUPS:        out.Spot.UPSWatts,
	}
	if len(op.slotPayments) > 0 {
		c.Payments = op.slotPayments
	}
	if op.responder != nil {
		c.Responder = op.responder.checkpointInto(&op.commitResponder)
	}
	return c
}

// ApplySlotCommit replays one committed slot into the books: accumulator
// deltas are re-Added in their original order (bit-identical compensated
// sums), counters and spot prediction are overwritten with the recorded
// post-slot values, and responder state is overwritten when present.
func (op *Operator) ApplySlotCommit(c SlotCommit) error {
	if n := len(c.SpotPDU); n != 0 && n != len(op.topo.PDUs) {
		return fmt.Errorf("operator: slot commit spot sized for %d PDUs, topology has %d", n, len(op.topo.PDUs))
	}
	if c.Responder != nil && op.responder == nil {
		return fmt.Errorf("operator: slot commit carries responder state but the emergency responder is disabled")
	}
	if op.responder != nil && c.Responder != nil {
		if err := op.responder.restore(c.Responder); err != nil {
			return err
		}
	}
	op.spotRevenue.Add(c.Revenue)
	op.spotEnergyKWh.Add(c.EnergyKWh)
	for _, p := range c.Payments {
		op.book(p)
	}
	op.slots = c.Slots
	op.emergencySlots = c.EmergencySlots
	op.lastSpot = power.Spot{
		PDUWatts: append([]float64(nil), c.SpotPDU...),
		UPSWatts: c.SpotUPS,
	}
	return nil
}
