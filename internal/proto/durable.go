// Durable market state: the glue between the market loop and internal/wal.
//
// Commit discipline: a slot is committed when its WAL record is appended
// (and, under the every-slot policy, fsynced) — after the operator has run
// the slot but before any broadcast goes out. Recovery therefore resumes at
// the slot after the last committed record; a crash that tears the record
// of slot K restores to K-1 and the restarted loop re-runs K from the same
// deterministic inputs. A crash after the commit but before the broadcast
// bills a grant tenants never heard — the standard write-ahead trade-off:
// the books never lose a committed slot, at the cost of occasionally
// charging for an undelivered one (see DESIGN §4h).
package proto

import (
	"errors"
	"fmt"

	"spotdc/internal/binenc"
	"spotdc/internal/operator"
	"spotdc/internal/wal"
)

// WAL record types. walTypeSlot is one committed slot in the binary layout
// below; walTypeSlotJSON is the JSON record earlier builds wrote, which
// recovery refuses by name instead of decoding (no deployed state
// directories exist, so there is no second decoder to keep in step).
const (
	walTypeSlotJSON byte = 0x01
	walTypeSlot     byte = 0x02
)

// Payload layouts (internal/binenc conventions; DESIGN §4h). The operator
// owns the encoding of its own state, this file only frames it:
//
//	slot record                            snapshot
//	u8   version (2)                       u8   version (2)
//	u8   flags (bit0 degraded,             u8   flags (bit0 have_taken)
//	            bit1 commit follows)       i64  taken
//	i64  slot                              operator.Checkpoint, to the end
//	[operator.SlotCommit, to the end]
//
// The commit carries one payment row per tenant granted capacity in the
// slot; the checkpoint one cumulative account per tenant.
const (
	durableVersion = 2

	slotFlagDegraded = 1 << 0
	slotFlagCommit   = 1 << 1
	snapFlagTaken    = 1 << 0
)

// errOlderVersion is the recovery error for state written before the
// binary records; errOlderLayout for binary records of durable version 1,
// which billed one payment row per grant and framed an opaque extra-state
// field.
var (
	errOlderVersion = errors.New("written by an older version of spotdc (JSON WAL payload); " +
		"this build reads binary records only and keeps no compatibility decoder — start from a fresh state directory")
	errOlderLayout = errors.New("written by an older version of spotdc (durable record version 1); " +
		"this build reads version 2 records only and keeps no compatibility decoder — start from a fresh state directory")
)

// defaultSnapshotEvery is how many committed slots elapse between automatic
// snapshots when Durable.SnapshotEvery is zero.
const defaultSnapshotEvery = 64

// Durable threads a write-ahead log through the market loop: one record
// per slot boundary, periodic snapshots with segment compaction, and
// recovery back into the operator and server.
type Durable struct {
	// Log is the open write-ahead log (required).
	Log *wal.Log
	// SnapshotEvery takes a snapshot after this many committed slots
	// (default 64). Snapshots bound replay length and let the log drop
	// fully-covered segments.
	SnapshotEvery int

	sinceSnapshot int
	// buf and names are the record encoder's scratch: every slot record is
	// built once into buf and handed to the log whole.
	buf   []byte
	names binenc.Names
}

func (d *Durable) validate() error {
	if d.Log == nil {
		return fmt.Errorf("%w: Durable needs an open WAL", ErrProtocol)
	}
	if d.SnapshotEvery < 0 {
		return fmt.Errorf("%w: SnapshotEvery %d negative", ErrProtocol, d.SnapshotEvery)
	}
	return nil
}

// commitSlot appends the slot's WAL record and makes it durable under the
// log's sync policy. WAL failures must never stop the market (availability
// over durability — the operator keeps clearing on a full disk), and must
// never be silent either: whatever keeps a record from being built or
// appended — a name too long to encode, a payload over wal.MaxRecord, an
// I/O error — lands in the log's sticky error, which ends the log at the
// last complete slot and is surfaced by Log.Err() at shutdown. A nil
// commit records a degraded slot.
func (d *Durable) commitSlot(op *operator.Operator, srv *Server, slot int, commit *operator.SlotCommit) {
	data, err := d.encodeSlot(slot, commit)
	if err != nil {
		d.Log.Fail(err)
		return
	}
	if _, err := d.Log.Append(walTypeSlot, data); err != nil {
		return // sticky inside the log
	}
	_ = d.Log.SlotSync() // likewise
	every := d.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	if d.sinceSnapshot++; d.sinceSnapshot >= every {
		d.sinceSnapshot = 0
		d.snapshot(op, srv)
	}
}

// encodeSlot builds the slot record into d.buf; the result is valid until
// the next encode. Steady state allocates nothing here.
func (d *Durable) encodeSlot(slot int, commit *operator.SlotCommit) ([]byte, error) {
	var flags byte = slotFlagCommit
	if commit == nil {
		flags = slotFlagDegraded
	}
	b := append(d.buf[:0], durableVersion, flags)
	b = binenc.AppendInt(b, slot)
	var err error
	if commit != nil {
		b, err = commit.AppendBinary(b, &d.names)
	}
	d.buf = b[:0] // keep the grown scratch
	if err != nil {
		return nil, fmt.Errorf("proto: slot %d record: %w", slot, err)
	}
	return b, nil
}

// snapshot persists a full checkpoint and compacts covered segments. Like
// commitSlot, every failure is sticky in the log.
func (d *Durable) snapshot(op *operator.Operator, srv *Server) {
	var flags byte
	taken := 0
	if srv != nil {
		var have bool
		if taken, have = srv.MarketPosition(); have {
			flags = snapFlagTaken
		}
	}
	b := append(d.buf[:0], durableVersion, flags)
	b = binenc.AppendInt(b, taken)
	cp := op.Checkpoint()
	b, err := cp.AppendBinary(b)
	d.buf = b[:0]
	if err != nil {
		d.Log.Fail(fmt.Errorf("proto: snapshot: %w", err))
		return
	}
	_ = d.Log.Snapshot(b) // sticky inside the log
}

// slotRecord is one decoded slot record. Commit is nil for a degraded
// slot; otherwise it borrows from the decoder's scratch and the record
// bytes.
type slotRecord struct {
	Slot     int
	Degraded bool
	Commit   *operator.SlotCommit
}

// decodeSlotRecord decodes a walTypeSlot payload, filling into (reused
// across records) when a commit follows.
func decodeSlotRecord(data []byte, into *operator.SlotCommit) (slotRecord, error) {
	r := binenc.Reader{B: data}
	var rec slotRecord
	flags, err := readDurableHeader(&r, slotFlagDegraded|slotFlagCommit)
	if err != nil {
		return rec, err
	}
	rec.Degraded = flags&slotFlagDegraded != 0
	if rec.Degraded == (flags&slotFlagCommit != 0) {
		return rec, fmt.Errorf("flags %#02x: a slot is either degraded or carries a commit", flags)
	}
	if rec.Slot, err = r.Int(); err != nil {
		return rec, err
	}
	if rec.Degraded {
		return rec, r.End()
	}
	rec.Commit = into
	return rec, into.UnmarshalBinary(r.B[r.Off:])
}

// readDurableHeader reads the version and flags bytes both payloads open
// with; a payload that opens with '{' is an earlier build's JSON, one that
// opens with an earlier version byte an earlier build's binary layout.
func readDurableHeader(r *binenc.Reader, knownFlags byte) (flags byte, err error) {
	if r.Len() > 0 {
		switch v := r.B[r.Off]; {
		case v == '{':
			return 0, errOlderVersion
		case v > 0 && v < durableVersion:
			return 0, errOlderLayout
		}
	}
	return r.VersionFlags(durableVersion, knownFlags)
}

// Recovered reports what RecoverDurable rebuilt from a state directory.
type Recovered struct {
	// NextSlot is where the market loop should resume: one past the last
	// committed slot (0 for a fresh directory).
	NextSlot int
	// SlotsReplayed counts committed slot records applied on top of the
	// snapshot; DegradedReplayed counts degraded markers among them.
	SlotsReplayed    int
	DegradedReplayed int
	// HadSnapshot reports whether a snapshot anchored the recovery.
	HadSnapshot bool
	// Truncations echoes the WAL's torn-tail repairs (wal.Recovery).
	Truncations int
}

// RecoverDurable rebuilds market state from a WAL recovery: the snapshot
// (if any) restores the operator checkpoint and server position, then every
// committed slot record replays into the books. srv may be nil (recovery
// before the server exists); the operator is required.
func RecoverDurable(rec *wal.Recovery, op *operator.Operator, srv *Server) (*Recovered, error) {
	if op == nil {
		return nil, fmt.Errorf("%w: recovery needs an operator", ErrProtocol)
	}
	out := &Recovered{Truncations: rec.Truncations}
	if rec.Snapshot != nil {
		r := binenc.Reader{B: rec.Snapshot}
		flags, err := readDurableHeader(&r, snapFlagTaken)
		if err != nil {
			return nil, fmt.Errorf("proto: snapshot payload: %w", err)
		}
		taken, err := r.Int()
		if err != nil {
			return nil, fmt.Errorf("proto: corrupt snapshot payload: %w", err)
		}
		var cp operator.Checkpoint
		if err := cp.UnmarshalBinary(r.B[r.Off:]); err != nil {
			return nil, fmt.Errorf("proto: corrupt snapshot payload: %w", err)
		}
		if err := op.Restore(cp); err != nil {
			return nil, err
		}
		out.HadSnapshot = true
		if flags&snapFlagTaken != 0 {
			out.NextSlot = taken + 1
		}
	}
	var commit operator.SlotCommit // decode scratch, reused across records
	for _, r := range rec.Records {
		if r.Type == walTypeSlotJSON {
			return nil, fmt.Errorf("proto: slot record seq %d: %w", r.Seq, errOlderVersion)
		}
		if r.Type != walTypeSlot {
			continue
		}
		sr, err := decodeSlotRecord(r.Data, &commit)
		if err != nil {
			return nil, fmt.Errorf("proto: corrupt slot record seq %d: %w", r.Seq, err)
		}
		if sr.Degraded {
			out.DegradedReplayed++
		} else if err := op.ApplySlotCommit(*sr.Commit); err != nil {
			return nil, fmt.Errorf("proto: slot record %d: %w", sr.Slot, err)
		}
		out.SlotsReplayed++
		if sr.Slot+1 > out.NextSlot {
			out.NextSlot = sr.Slot + 1
		}
	}
	if srv != nil && out.NextSlot > 0 {
		// Position the bid window so reconnecting tenants land in the
		// correct slot: bids at or before the last committed slot are stale.
		srv.RestoreMarketPosition(out.NextSlot - 1)
	}
	return out, nil
}
