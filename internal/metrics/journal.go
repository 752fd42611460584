package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"spotdc/internal/binenc"
)

// Journal schema tags, carried by the header line's "schema" key. A journal
// opens with one JournalHeader line carrying the run's static configuration
// — topology, market options, prediction factor, slot length — followed by
// one SlotEvent line per slot whose cleared events capture the full slot
// inputs (bids, reading, predicted capacities). Together they make a slot
// deterministically replayable offline (cmd/spotdc-audit). A journal with
// no header line is a v1 journal: outcome-only events, still readable, but
// only the outcome-level invariants can be re-checked.
//
// v3 is what Journal writes. It differs from v2 in one thing: a cleared
// event's five bulk arrays (bid_set, grant_set, pdu_spot, rack_watts,
// other_pdu_watts) travel as one binary section, base64 in the line's
// "packed" key (journalpack.go), instead of as JSON arrays — at 15,000
// racks that is ≈ 120,000 floats per slot that no longer pass through
// decimal formatting. Scalars and the rare emergency records stay plain
// JSON, so jq/grep on them work as before; `spotdc-audit -dump` re-emits
// any journal in the fully expanded v2 form. Readers accept v1, v2 and v3
// and decode each line by what it carries.
const (
	JournalSchemaV2 = "spotdc/slot-journal/v2"
	JournalSchemaV3 = "spotdc/slot-journal/v3"
)

// JournalRack describes one rack in a journal header.
type JournalRack struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant,omitempty"`
	PDU        int     `json:"pdu"`
	Guaranteed float64 `json:"guaranteed"`
	// Headroom is the rack's spot headroom P_r^R in watts.
	Headroom float64 `json:"headroom"`
}

// JournalHeader is the first line of a journal (v2 and up): everything
// static a replay needs to rebuild the operator's market bit-for-bit.
type JournalHeader struct {
	// Schema is the journal's schema tag (JournalSchemaV3 as written).
	Schema string `json:"schema"`
	// UPSCapacity / PDUCapacity / Racks describe the power topology.
	UPSCapacity float64       `json:"ups_capacity"`
	PDUCapacity []float64     `json:"pdu_capacity"`
	Racks       []JournalRack `json:"racks"`
	// PriceStep / ReservePrice / Ration mirror the market options.
	PriceStep    float64 `json:"price_step,omitempty"`
	ReservePrice float64 `json:"reserve_price,omitempty"`
	Ration       bool    `json:"ration,omitempty"`
	// Algorithm is the configured engine ("auto", "scan" or "exact"); each
	// event additionally records the engine that actually ran.
	Algorithm string `json:"algorithm,omitempty"`
	// UnderPrediction is the prediction's conservative scaling factor.
	UnderPrediction float64 `json:"under_prediction,omitempty"`
	// SlotHours is the billed slot length in hours.
	SlotHours float64 `json:"slot_hours"`
	// BreakerTolerance is the circuit-breaker excursion tolerance the loop
	// checked emergencies with (only stamped when emergency checking ran).
	BreakerTolerance float64 `json:"breaker_tolerance,omitempty"`
	// EmergencyResponder marks a run whose operator planned reclamation on
	// excursions; EmergencyEscalation is its guaranteed-curtailment
	// severity threshold. Together with BreakerTolerance they let the
	// audit layer replay each slot's reclaim events deterministically.
	EmergencyResponder  bool    `json:"emergency_responder,omitempty"`
	EmergencyEscalation float64 `json:"emergency_escalation,omitempty"`
}

// BidRecord is the journaled wire form of one piece-wise linear rack bid
// (the four solicited parameters of Eqn. 5).
type BidRecord struct {
	Rack   int     `json:"rack"`
	Tenant string  `json:"tenant,omitempty"`
	DMax   float64 `json:"dmax"`
	DMin   float64 `json:"dmin"`
	QMin   float64 `json:"qmin"`
	QMax   float64 `json:"qmax"`
}

// GrantRecord is one positive-watt allocation of a cleared slot.
type GrantRecord struct {
	Rack  int     `json:"rack"`
	Watts float64 `json:"watts"`
}

// BudgetRecord is one rack's budget reset inside a ReclaimRecord.
type BudgetRecord struct {
	Rack        int     `json:"rack"`
	BudgetWatts float64 `json:"budget_watts"`
	// SpotCut is the watts reclaimed from draw above the rack's guarantee;
	// GuaranteedCut the watts curtailed out of the guarantee (escalation).
	SpotCut       float64 `json:"spot_cut,omitempty"`
	GuaranteedCut float64 `json:"guaranteed_cut,omitempty"`
}

// ReclaimRecord journals one emergency reclamation: the excursion and the
// budget resets the responder issued for it. A pure function of the slot's
// reading, grants, and the header's responder parameters, so the audit
// layer replays it bit-for-bit.
type ReclaimRecord struct {
	// Level is "PDU" or "UPS"; PDU indexes the topology's PDUs (-1 = UPS).
	Level string `json:"level"`
	PDU   int    `json:"pdu"`
	// LoadWatts / CapacityWatts echo the excursion.
	LoadWatts     float64 `json:"load_watts"`
	CapacityWatts float64 `json:"capacity_watts"`
	// SpotCutWatts / GuaranteedCutWatts total the plan's cuts by class.
	SpotCutWatts       float64 `json:"spot_cut_watts"`
	GuaranteedCutWatts float64 `json:"guaranteed_cut_watts,omitempty"`
	// Escalated marks a plan that curtailed guaranteed capacity.
	Escalated bool `json:"escalated,omitempty"`
	// Budgets lists the per-rack resets in ascending rack order.
	Budgets []BudgetRecord `json:"budgets,omitempty"`
}

// SlotEvent is one structured record of the per-slot event journal: the
// operator's view of a market slot, serialized as one JSON line. The
// journal complements the scrape surface — /metrics answers "what is the
// market doing now / in aggregate", the journal answers "what happened in
// slot 12,417" after the fact (jq-able, greppable, diffable).
//
// The struct tags are the expanded (v2) form of a line; Journal.Append
// writes the same keys with the bulk arrays packed (see JournalSchemaV3).
// The market loop fills an event's slices by borrowing — its own scratch,
// the slot's reading, the operator's outcome — so an event handed to
// Append is only valid until the next slot; Append serializes it before
// returning and keeps no reference. Events returned by ReadJournal own
// their slices.
type SlotEvent struct {
	// Slot is the market slot index.
	Slot int `json:"slot"`
	// UnixMicros is the wall-clock append time in microseconds since the
	// epoch (0 when the caller does not stamp it).
	UnixMicros int64 `json:"ts_us,omitempty"`
	// Price is the uniform clearing price in $/kW·h (0 on degraded slots).
	Price float64 `json:"price"`
	// SoldWatts is the total spot capacity sold.
	SoldWatts float64 `json:"sold_watts"`
	// Revenue is the $ billed for the slot.
	Revenue float64 `json:"revenue"`
	// Grants counts allocations with positive watts.
	Grants int `json:"grants"`
	// Bids counts the bids collected for the slot.
	Bids int `json:"bids"`
	// Degraded marks a slot that fell back to the zero-price no-grant
	// default; Err carries the cause.
	Degraded bool   `json:"degraded,omitempty"`
	Err      string `json:"err,omitempty"`
	// ClearMicros is the wall time spent inside market clearing, in µs.
	ClearMicros int64 `json:"clear_us"`
	// FaultDrops / FaultDelays / FaultSevers are the cumulative injected
	// fault counts at journal time (only populated by harnesses that inject
	// faults; a pure function of the fault seed).
	FaultDrops  int64 `json:"fault_drops,omitempty"`
	FaultDelays int64 `json:"fault_delays,omitempty"`
	FaultSevers int64 `json:"fault_severs,omitempty"`

	// The remaining fields are the full-input capture (schema v2 and up),
	// populated only for cleared slots (degraded slots may hold corrupt
	// readings; their v1-style outcome record plus Err is the complete
	// story). Together with the header they let
	// internal/audit replay the slot through both clearing engines.

	// Algorithm is the engine that produced the result ("scan" or "exact");
	// Evaluations its demand-curve evaluation count.
	Algorithm   string `json:"algorithm,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
	// BidSet is the slot's collected bids in submission order.
	BidSet []BidRecord `json:"bid_set,omitempty"`
	// GrantSet lists the positive-watt allocations (Grants == len(GrantSet)).
	GrantSet []GrantRecord `json:"grant_set,omitempty"`
	// PDUSpot / UPSSpot are the predicted spot capacities cleared against.
	PDUSpot []float64 `json:"pdu_spot,omitempty"`
	UPSSpot float64   `json:"ups_spot,omitempty"`
	// RackWatts / OtherPDUWatts are the power reading the prediction ran on.
	RackWatts     []float64 `json:"rack_watts,omitempty"`
	OtherPDUWatts []float64 `json:"other_pdu_watts,omitempty"`
	// InputsTruncated marks a cleared slot whose bid set could not be fully
	// captured (a demand function with no four-parameter wire form); replay
	// falls back to outcome-level checks for it.
	InputsTruncated bool `json:"inputs_truncated,omitempty"`

	// Emergency-responder capture (only populated when the run's header has
	// EmergencyResponder set; all empty on healthy slots, so journals from
	// responder-less runs are byte-identical to before).

	// SuspendedPDUs / SuspendedUPS record the suspensions applied to THIS
	// slot's prediction: the listed elements' spot capacity was zeroed
	// before clearing. Replay applies the same zeroing before comparing.
	SuspendedPDUs []int `json:"suspended_pdus,omitempty"`
	SuspendedUPS  bool  `json:"suspended_ups,omitempty"`
	// Reclaims lists the reclamations planned from this slot's reading.
	Reclaims []ReclaimRecord `json:"reclaims,omitempty"`
	// RestoredPDUs / RestoredUPS record elements whose suspension ended
	// this slot (budgets restored to guaranteed + headroom).
	RestoredPDUs []int `json:"restored_pdus,omitempty"`
	RestoredUPS  bool  `json:"restored_ups,omitempty"`
}

// Journal appends SlotEvents as JSONL to an io.Writer sink. It is safe for
// concurrent use; each Append writes exactly one line. A nil *Journal is a
// valid no-op sink, so callers wire it unconditionally.
type Journal struct {
	mu        sync.Mutex
	w         io.Writer
	n         int
	syncEvery int
	header    bool
	err       error

	// Encoder scratch, reused across appends: the line being built, the
	// binary section before it is base64'd into the line, and the
	// section's tenant-name table.
	line  []byte
	sec   []byte
	names binenc.Names
}

// NewJournal builds a journal over w (typically an *os.File opened by the
// -events flag, or a bytes.Buffer in tests).
func NewJournal(w io.Writer) *Journal {
	return NewJournalOpts(w, JournalOptions{})
}

// JournalOptions tunes a journal's durability behavior.
type JournalOptions struct {
	// SyncEvery fsyncs the sink after every N successful appends, when the
	// sink supports it (*os.File does). 0 leaves durability to the OS page
	// cache — the historical behavior.
	SyncEvery int
	// Resumed marks a journal reopened in append mode after a restart: the
	// header line is already on disk, so HasHeader reports true and the
	// market loop won't write a duplicate mid-file.
	Resumed bool
}

// NewJournalOpts builds a journal over w with explicit durability options.
func NewJournalOpts(w io.Writer, opts JournalOptions) *Journal {
	return &Journal{w: w, syncEvery: opts.SyncEvery, header: opts.Resumed}
}

// Append writes one event as one line with one Write. The event is fully
// serialized before Append returns (it may borrow its slices, see
// SlotEvent), and a steady-state append allocates nothing. The first
// encode or write error is sticky and returned by every subsequent Append
// (and by Err), so a full disk degrades the journal, never the market loop.
func (j *Journal) Append(ev SlotEvent) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.appendLine(&ev); err != nil {
		j.err = err
		return err
	}
	if _, err := j.w.Write(j.line); err != nil {
		j.err = err
		return err
	}
	j.n++
	if j.syncEvery > 0 && j.n%j.syncEvery == 0 {
		return j.syncLocked()
	}
	return nil
}

// Sync forces the sink to stable storage when it supports it (*os.File);
// other sinks are a no-op. Called by graceful shutdown, and automatically
// every JournalOptions.SyncEvery appends.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	s, ok := j.w.(interface{ Sync() error })
	if !ok {
		return nil
	}
	if err := s.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Header writes the schema header as the journal's first line. It must
// be called before any Append; a second call, or a call after events were
// written, is rejected (a header mid-stream would corrupt the journal).
// Write errors are sticky, exactly as for Append.
func (j *Journal) Header(h JournalHeader) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.header || j.n > 0 {
		return fmt.Errorf("metrics: journal header must be the first line (have header=%v, %d events)", j.header, j.n)
	}
	h.Schema = JournalSchemaV3
	line, err := json.Marshal(h)
	if err == nil {
		_, err = j.w.Write(append(line, '\n'))
	}
	if err != nil {
		j.err = err
		return err
	}
	j.header = true
	return nil
}

// HasHeader reports whether a header was written.
func (j *Journal) HasHeader() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.header
}

// Events returns how many events were appended successfully.
func (j *Journal) Events() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// maxJournalLine bounds one journal line when reading: a 15,000-rack v2
// event (rack_watts plus bid_set) runs to a few megabytes of JSON.
const maxJournalLine = 64 << 20

// ReadJournal parses a slot journal. The returned header is nil for a v1
// journal (no header line); events are returned in file order. An unknown
// schema tag or malformed line in the middle of the file fails the whole
// read: a journal that cannot be parsed completely cannot be audited. The
// single exception is a torn FINAL line — the signature of a crash mid-
// append — which is dropped so a crashed run's journal stays auditable
// (use ReadJournalInfo to learn whether a tail was dropped).
func ReadJournal(r io.Reader) (*JournalHeader, []SlotEvent, error) {
	header, events, _, err := ReadJournalInfo(r)
	return header, events, err
}

// ReadJournalInfo is ReadJournal plus a torn-tail report: torn is true when
// the journal's last line failed to parse and was dropped (truncate-and-
// warn semantics — the operator died mid-append). A malformed line with
// further lines after it is still a hard error, not a tear.
func ReadJournalInfo(r io.Reader) (header *JournalHeader, events []SlotEvent, torn bool, err error) {
	torn, err = scanJournal(r,
		func(h *JournalHeader) error { header = h; return nil },
		func(ev *SlotEvent) error { events = append(events, *ev); return nil })
	if err != nil {
		return nil, nil, false, err
	}
	return header, events, torn, nil
}

// DumpJournal re-emits a journal of any schema as plain expanded JSONL:
// every array of every event written out as a JSON array, one line per
// event, which is exactly the v2 form (so the header, when present, is
// tagged v2). It is the on-demand answer to `jq '.bid_set[]'` and grep on a
// packed journal; the dump of a journal audits to the same report as the
// journal. A torn final line is dropped and reported, as in
// ReadJournalInfo.
func DumpJournal(w io.Writer, r io.Reader) (torn bool, err error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	torn, err = scanJournal(r,
		func(h *JournalHeader) error {
			h.Schema = JournalSchemaV2
			return enc.Encode(h)
		},
		func(ev *SlotEvent) error { return enc.Encode(ev) })
	if err != nil {
		return false, err
	}
	return torn, bw.Flush()
}

// journalLine is one event line as read: the expanded fields, plus the
// packed section a v3 line carries instead of its bulk arrays
// (encoding/json base64-decodes a string into a []byte field).
type journalLine struct {
	SlotEvent
	Packed []byte `json:"packed"`
}

// scanJournal walks a journal line by line, handing the header (at most
// once, first) and each event to the callbacks; the values passed are only
// valid during the call unless copied (events own their slices).
func scanJournal(r io.Reader, onHeader func(*JournalHeader) error, onEvent func(*SlotEvent) error) (torn bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	line, valid := 0, 0
	// A parse failure is held pending: fatal only if a later non-empty line
	// proves the defect was not a torn tail.
	var pending error
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if pending != nil {
			return false, pending
		}
		line++
		if line == 1 {
			var probe struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				pending = fmt.Errorf("metrics: journal line 1: %w", err)
				continue
			}
			if probe.Schema != "" {
				if probe.Schema != JournalSchemaV2 && probe.Schema != JournalSchemaV3 {
					return false, fmt.Errorf("metrics: unsupported journal schema %q (want %q or %q)",
						probe.Schema, JournalSchemaV3, JournalSchemaV2)
				}
				header := &JournalHeader{}
				if err := json.Unmarshal(raw, header); err != nil {
					return false, fmt.Errorf("metrics: journal header: %w", err)
				}
				if err := onHeader(header); err != nil {
					return false, err
				}
				valid++
				continue
			}
		}
		var jl journalLine
		err := json.Unmarshal(raw, &jl)
		if err == nil && jl.Packed != nil {
			err = unpackSection(jl.Packed, &jl.SlotEvent)
		}
		if err != nil {
			pending = fmt.Errorf("metrics: journal line %d: %w", line, err)
			continue
		}
		if err := onEvent(&jl.SlotEvent); err != nil {
			return false, err
		}
		valid++
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("metrics: reading journal: %w", err)
	}
	if pending != nil && valid == 0 {
		// Nothing valid preceded the defect: that is a file that is not a
		// journal, not a journal with a torn tail.
		return false, pending
	}
	return pending != nil, nil
}
