// Package wal is SpotDC's durable-state subsystem: an append-only,
// segmented write-ahead log with periodic snapshots and crash recovery.
// The operator's market obligations outlive any single slot — invoices
// accumulate for a month, an emergency suspension must persist until the
// element recovers — so the market loop commits one record per slot
// boundary here before broadcasting, and a restarted operator replays the
// log to land exactly where it died.
//
// The subsystem is deliberately generic: records are opaque (type byte +
// payload), so the packages that own the state (operator, proto, billing)
// serialize themselves and wal stays import-cycle-free and stdlib-only.
//
// On-disk format. Every record is one frame, reusing the wire codec's
// framing conventions (internal/proto binary codec): a 6-byte header
// [magic 0xD7][version 0x01][type][u24 BE payload length], the payload,
// then a u32 BE CRC32C (Castagnoli) over header+payload. Frames are
// concatenated into segment files named wal-<first seq, %016x>.seg; a
// snapshot is a single frame in its own snap-<covered seq>.snap file,
// written atomically (tmp + fsync + rename + directory fsync). Recovery
// loads the newest valid snapshot and replays every record at or after
// its sequence; the first torn or CRC-failing record truncates the log
// there — a crash mid-write must cost the tail record, never the run.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	frameMagic   = 0xD7
	frameVersion = 0x01
	headerSize   = 6
	crcSize      = 4

	// MaxRecord bounds one record's payload (the u24 length field). A
	// 15,000-rack binary slot record is ≈ 0.3 MB (≈ 20 B/rack), so the
	// bound is reached near 800,000 racks; an oversize payload fails the
	// log (see Fail) rather than being dropped silently.
	MaxRecord = 1<<24 - 1

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// snapFrameType tags the single frame inside a snapshot file; record
	// types passed to Append are caller-defined and must not collide with
	// it, so they are capped below it.
	snapFrameType = 0xFF

	// retainSnapshots keeps this many newest snapshots (and the segments
	// needed to replay from the oldest retained one), so a snapshot file
	// corrupted at rest still leaves a recoverable older restore point.
	retainSnapshots = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after every Append: nothing acknowledged is
	// ever lost, at one fsync per record.
	SyncEveryRecord SyncPolicy = iota
	// SyncEverySlot leaves fsync to the caller's SlotSync at each slot
	// boundary: one fsync per market slot, the natural commit point of the
	// slot loop (a crash costs at most the in-flight slot, which the
	// restarted market re-runs deterministically).
	SyncEverySlot
	// SyncTimer fsyncs from a background timer (Options.TimerInterval):
	// cheapest, but a crash may lose every record since the last tick.
	SyncTimer
)

// String names the policy (the -fsync flag values).
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "record"
	case SyncEverySlot:
		return "slot"
	case SyncTimer:
		return "timer"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -fsync flag value ("record", "slot" or "timer").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "slot":
		return SyncEverySlot, nil
	case "record":
		return SyncEveryRecord, nil
	case "timer":
		return SyncTimer, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want record, slot or timer)", s)
	}
}

// Options configures a log.
type Options struct {
	// Dir is the state directory; created if missing. One log per dir.
	Dir string
	// Policy selects the fsync discipline (default SyncEverySlot).
	Policy SyncPolicy
	// TimerInterval is the SyncTimer tick (default 100ms).
	TimerInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this many
	// bytes (default 8 MiB).
	SegmentBytes int64
	// Metrics, if non-nil, receives wal_* instrumentation.
	Metrics *Metrics
}

func (o *Options) setDefaults() {
	if o.TimerInterval <= 0 {
		o.TimerInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

// Record is one recovered log entry.
type Record struct {
	// Seq is the record's log-wide sequence number.
	Seq uint64
	// Type is the caller-defined record type byte from Append.
	Type byte
	// Data is the payload.
	Data []byte
}

// Recovery is what Open found on disk: the newest valid snapshot (nil if
// none) and every durable record at or after it, in sequence order. The
// truncation counters report how much a crash (or corruption) cost.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, or nil.
	Snapshot []byte
	// SnapshotSeq is the sequence the snapshot covers: records with
	// Seq >= SnapshotSeq are returned in Records, everything earlier is
	// folded into the snapshot.
	SnapshotSeq uint64
	// Records are the replayable records, ascending by Seq.
	Records []Record
	// Truncations counts torn/CRC-failing tails cut off during recovery
	// (0 after a clean shutdown, 1 after a typical crash).
	Truncations int
	// TruncatedBytes is how many trailing bytes those truncations dropped.
	TruncatedBytes int64
	// DroppedSegments counts post-corruption segment files removed outright.
	DroppedSegments int
	// CorruptSnapshots counts snapshot files that failed validation and
	// were skipped in favor of an older one.
	CorruptSnapshots int
}

// Log is an append-only segmented write-ahead log. All methods are safe
// for concurrent use; the append path is allocation-free in steady state
// (each frame is assembled in a reused buffer and written with one Write).
type Log struct {
	opts Options
	met  *Metrics

	mu      sync.Mutex
	seg     *os.File // active segment
	segBase uint64   // sequence of the active segment's first record
	segLen  int64    // bytes written to the active segment
	segs    []uint64 // all segment base sequences, ascending (incl. active)
	snaps   []uint64 // all snapshot sequences, ascending
	nextSeq uint64
	dirty   bool // unsynced bytes in the active segment
	closed  bool
	err     error // sticky I/O error

	frame []byte // frame scratch: header + payload + CRC, written whole

	timerStop chan struct{}
	timerWG   sync.WaitGroup
}

// Open opens (or creates) the log in opts.Dir and recovers its durable
// state. The returned Recovery is complete before any new Append: callers
// restore their in-memory state from it, then resume appending.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: empty state dir")
	}
	opts.setDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, met: opts.Metrics}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if l.opts.Policy == SyncTimer {
		l.timerStop = make(chan struct{})
		l.timerWG.Add(1)
		go l.timerLoop()
	}
	return l, rec, nil
}

// segPath / snapPath name the on-disk files; sequences are zero-padded hex
// so lexical order is numeric order.
func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// scannedRec is one frame parsed out of a segment.
type scannedRec struct {
	typ  byte
	data []byte
}

// scanFrames parses concatenated frames out of data, returning the parsed
// records, the byte length of the valid prefix, and whether a torn or
// corrupt tail was found after it.
func scanFrames(data []byte) (recs []scannedRec, validLen int, torn bool) {
	off := 0
	for off < len(data) {
		if len(data)-off < headerSize {
			return recs, off, true
		}
		if data[off] != frameMagic || data[off+1] != frameVersion {
			return recs, off, true
		}
		n := int(data[off+3])<<16 | int(data[off+4])<<8 | int(data[off+5])
		end := off + headerSize + n + crcSize
		if end > len(data) {
			return recs, off, true
		}
		want := binary.BigEndian.Uint32(data[end-crcSize : end])
		if crc32.Checksum(data[off:end-crcSize], castagnoli) != want {
			return recs, off, true
		}
		payload := make([]byte, n)
		copy(payload, data[off+headerSize:end-crcSize])
		recs = append(recs, scannedRec{typ: data[off+2], data: payload})
		off = end
	}
	return recs, off, false
}

// recover scans the directory, truncates any torn tail, and leaves the log
// positioned to append after the last durable record.
func (l *Log) recover() (*Recovery, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	rec := &Recovery{}
	var startSeq uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		data, ok := readSnapshotFile(l.snapPath(snaps[i]))
		if !ok {
			rec.CorruptSnapshots++
			continue
		}
		rec.Snapshot = data
		rec.SnapshotSeq = snaps[i]
		startSeq = snaps[i]
		break
	}

	// Replay segments in order. After the first torn record every later
	// segment is a post-corruption remnant and is removed: appending past a
	// truncation point must not resurrect stale future records.
	var nextSeq uint64
	kept := segs[:0]
	truncated := false
	for i, base := range segs {
		path := l.segPath(base)
		if truncated || (i > 0 && base != nextSeq) {
			// Either past a truncation point, or a sequence gap (a missing
			// or foreign segment file): nothing after it can be trusted.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: dropping segment: %w", err)
			}
			rec.DroppedSegments++
			truncated = true
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		frames, validLen, torn := scanFrames(data)
		if torn {
			rec.Truncations++
			rec.TruncatedBytes += int64(len(data) - validLen)
			if err := os.Truncate(path, int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			truncated = true
		}
		for j, fr := range frames {
			seq := base + uint64(j)
			if seq >= startSeq {
				rec.Records = append(rec.Records, Record{Seq: seq, Type: fr.typ, Data: fr.data})
			}
		}
		nextSeq = base + uint64(len(frames))
		kept = append(kept, base)
	}
	if nextSeq < startSeq {
		// All segments covered by the snapshot were compacted away.
		nextSeq = startSeq
	}
	l.segs = kept
	l.snaps = snaps
	l.nextSeq = nextSeq
	if l.met != nil {
		l.met.truncations.Add(uint64(rec.Truncations))
	}

	// Open (or create) the active segment.
	if len(l.segs) > 0 {
		base := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(l.segPath(base), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.seg = f
		l.segBase = base
		l.segLen = st.Size()
	} else {
		if err := l.openSegmentLocked(nextSeq); err != nil {
			return nil, err
		}
	}
	l.observeSegments()
	return rec, nil
}

// readSnapshotFile validates a snapshot file: exactly one intact frame of
// the snapshot type.
func readSnapshotFile(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	frames, _, torn := scanFrames(data)
	if torn || len(frames) != 1 || frames[0].typ != snapFrameType {
		return nil, false
	}
	return frames[0].data, true
}

// openSegmentLocked creates a fresh segment whose first record will carry
// sequence base, and fsyncs the directory so the file itself is durable.
func (l *Log) openSegmentLocked(base uint64) error {
	f, err := os.OpenFile(l.segPath(base), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.segBase = base
	l.segLen = 0
	l.segs = append(l.segs, base)
	l.observeSegments()
	return syncDir(l.opts.Dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: dir fsync: %w", err)
	}
	return nil
}

func (l *Log) observeSegments() {
	if l.met != nil {
		l.met.segments.Set(float64(len(l.segs)))
	}
}

// fail records the first error; every later call returns it. A durable
// log that cannot write must not silently pretend it did.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Fail makes err the log's sticky error, unless one is already set. It is
// how a caller that could not even build a record — an encoder or an
// extra-state hook failed — stops the log at the last complete record: a
// log with a hole in its slot sequence would recover to books that are
// silently wrong, one that ends early recovers to a known slot, and either
// way Err reports why at shutdown.
func (l *Log) Fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.fail(err) // the sticky error is what Err is for
}

// appendFrame assembles [header][payload][CRC32C] onto b.
func appendFrame(b []byte, typ byte, data []byte) []byte {
	start := len(b)
	b = append(b, frameMagic, frameVersion, typ,
		byte(len(data)>>16), byte(len(data)>>8), byte(len(data)))
	b = append(b, data...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// Append writes one record and returns its sequence number. Under
// SyncEveryRecord the record is durable on return; under the other
// policies durability arrives at the next SlotSync / timer tick / Close.
func (l *Log) Append(typ byte, data []byte) (uint64, error) {
	if typ >= snapFrameType {
		return 0, fmt.Errorf("wal: record type %#x reserved", typ)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if len(data) > MaxRecord {
		// Sticky: the caller's sequence of records has a hole from here on.
		return 0, l.fail(fmt.Errorf("wal: record %d bytes exceeds %d", len(data), MaxRecord))
	}
	l.frame = appendFrame(l.frame[:0], typ, data)
	if _, err := l.seg.Write(l.frame); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	seq := l.nextSeq
	l.nextSeq++
	l.segLen += int64(len(l.frame))
	l.dirty = true
	if l.met != nil {
		l.met.appends.Inc()
		l.met.appendBytes.Add(uint64(len(l.frame)))
	}
	if l.opts.Policy == SyncEveryRecord {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.segLen >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// syncLocked fsyncs the active segment if it holds unsynced bytes.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.seg.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.dirty = false
	if l.met != nil {
		l.met.fsyncs.Inc()
		l.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// SlotSync is the market loop's per-slot commit barrier: under
// SyncEverySlot it fsyncs, under the other policies it is a no-op (the
// record policy already synced, the timer policy accepts the risk).
func (l *Log) SlotSync() error {
	if l.opts.Policy != SyncEverySlot {
		return nil
	}
	return l.Sync()
}

// rotateLocked seals the active segment (flush + fsync) and opens a fresh
// one starting at the next sequence.
func (l *Log) rotateLocked() error {
	if l.segLen == 0 && l.segBase == l.nextSeq {
		return nil // already fresh
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	if err := l.openSegmentLocked(l.nextSeq); err != nil {
		return l.fail(err)
	}
	return nil
}

// Snapshot atomically persists a full-state snapshot covering every record
// appended so far, then compacts: segments fully covered by the oldest
// retained snapshot are deleted, as are snapshots older than the retention
// window. After Snapshot returns, recovery needs only the snapshot plus
// records appended after this call.
func (l *Log) Snapshot(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(data) > MaxRecord {
		return l.fail(fmt.Errorf("wal: snapshot %d bytes exceeds %d", len(data), MaxRecord))
	}
	// Seal the segment first: a snapshot must never cover records that are
	// not themselves durable yet.
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.nextSeq
	path := l.snapPath(seq)
	tmp := path + ".tmp"
	l.frame = appendFrame(l.frame[:0], snapFrameType, data)
	if err := writeFileSync(tmp, l.frame); err != nil {
		return l.fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	if err := syncDir(l.opts.Dir); err != nil {
		return l.fail(err)
	}
	l.snaps = append(l.snaps, seq)
	if l.met != nil {
		l.met.snapshots.Inc()
		l.met.snapshotBytes.Set(float64(len(data)))
	}
	// Rotate so every earlier segment is fully covered by this snapshot,
	// then compact behind the retention window.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	return l.compactLocked()
}

// compactLocked deletes snapshots older than the retention window and
// segments whose entire sequence range is below the oldest retained
// snapshot. Best-effort removals never fail the log: leftover files only
// cost disk, and the next compaction retries.
func (l *Log) compactLocked() error {
	if len(l.snaps) > retainSnapshots {
		for _, seq := range l.snaps[:len(l.snaps)-retainSnapshots] {
			_ = os.Remove(l.snapPath(seq))
		}
		l.snaps = append(l.snaps[:0], l.snaps[len(l.snaps)-retainSnapshots:]...)
	}
	floor := l.snaps[0] // oldest retained; Snapshot just appended, so non-empty
	kept := l.segs[:0]
	for i, base := range l.segs {
		// A segment's range ends where the next one begins; the active
		// (last) segment is never removed.
		if i+1 < len(l.segs) && l.segs[i+1] <= floor {
			_ = os.Remove(l.segPath(base))
			continue
		}
		kept = append(kept, base)
	}
	l.segs = kept
	l.observeSegments()
	return nil
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) timerLoop() {
	defer l.timerWG.Done()
	t := time.NewTicker(l.opts.TimerInterval)
	defer t.Stop()
	for {
		select {
		case <-l.timerStop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

func (l *Log) stopTimer() {
	if l.timerStop != nil {
		close(l.timerStop)
		l.timerWG.Wait()
		l.timerStop = nil
	}
}

// Close flushes, fsyncs, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.mu.Unlock()
	l.stopTimer()
	return err
}

// Kill abruptly closes the log's file descriptors without the final fsync
// — the crash-injection hook: whatever the OS had not persisted is exactly
// what a process kill would have lost. Test harnesses only.
func (l *Log) Kill() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		_ = l.seg.Close()
	}
	l.mu.Unlock()
	l.stopTimer()
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
