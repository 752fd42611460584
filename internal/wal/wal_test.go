package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spotdc/internal/metrics"
)

func openT(t *testing.T, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, Options{Dir: dir, Policy: SyncEveryRecord})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for i := 0; i < 10; i++ {
		seq, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	if len(rec2.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i) || r.Type != 1 || string(r.Data) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if got := l2.nextSeq; got != 10 {
		t.Fatalf("NextSeq = %d, want 10", got)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(2, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-write: a frame header claiming more payload than
	// was ever written.
	seg := l.segPath(0)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameMagic, frameVersion, 2, 0, 1, 0, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Truncations != 1 || rec.TruncatedBytes != 8 {
		t.Fatalf("truncations=%d bytes=%d, want 1/8", rec.Truncations, rec.TruncatedBytes)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	// The torn tail is physically gone: appends continue cleanly from seq 5.
	seq, err := l2.Append(2, []byte("after"))
	if err != nil || seq != 5 {
		t.Fatalf("Append after truncation: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, Options{Dir: dir})
	defer l3.Close()
	if len(rec3.Records) != 6 || rec3.Truncations != 0 {
		t.Fatalf("re-recovered %d records (%d truncations), want 6/0", len(rec3.Records), rec3.Truncations)
	}
}

func TestRecoveryTruncatesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEveryRecord})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip one payload byte of the third record: CRC fails there, so
	// recovery keeps records 0-1 and truncates from record 2 on.
	seg := l.segPath(0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := headerSize + 32 + crcSize
	data[2*recLen+headerSize] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if rec.Truncations != 1 || rec.TruncatedBytes != int64(2*recLen) {
		t.Fatalf("truncations=%d bytes=%d, want 1/%d", rec.Truncations, rec.TruncatedBytes, 2*recLen)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so appends rotate often.
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state-at-20")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 20; i < 25; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state-at-25")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 25; i < 28; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Segments fully below the oldest retained snapshot (seq 20) are gone.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if base, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && base < 19 {
			t.Fatalf("segment %s should have been compacted", e.Name())
		}
	}

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if string(rec.Snapshot) != "state-at-25" || rec.SnapshotSeq != 25 {
		t.Fatalf("snapshot = %q @ %d, want state-at-25 @ 25", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 3 || rec.Records[0].Seq != 25 {
		t.Fatalf("replay records = %+v, want 3 from seq 25", rec.Records)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEverySlot})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("snap-6")); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("snap-9")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot at rest: recovery must fall back to the
	// older one and replay the records it still has on disk.
	newest := filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, 9, snapSuffix))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, Options{Dir: dir})
	defer l2.Close()
	if rec.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", rec.CorruptSnapshots)
	}
	if string(rec.Snapshot) != "snap-6" || rec.SnapshotSeq != 6 {
		t.Fatalf("fell back to %q @ %d, want snap-6 @ 6", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 3 || rec.Records[0].Seq != 6 {
		t.Fatalf("replay records = %+v, want seqs 6..8", rec.Records)
	}
}

func TestKillLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// Timer policy with a long interval: nothing fsyncs between appends.
	l, _ := openT(t, Options{Dir: dir, Policy: SyncTimer, TimerInterval: time.Hour})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Kill()
	// The first three records were synced; the rest may or may not have
	// reached the file (os.File writes are unbuffered in Go, so in-process
	// they land in the page cache — the invariant recovery must provide is
	// only "a valid prefix, at least through the last sync").
	_, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) < 3 {
		t.Fatalf("recovered %d records, want >= 3", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i) || r.Data[0] != byte(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestAppendAfterCloseAndReservedType(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	if _, err := l.Append(snapFrameType, nil); err == nil {
		t.Fatal("reserved type accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after close: %v, want ErrClosed", err)
	}
}

func TestMetricsFamilies(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	l, _ := openT(t, Options{Dir: dir, Policy: SyncEveryRecord, Metrics: NewMetrics(reg)})
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for name, want := range map[string]float64{
		"spotdc_wal_appends_total":   1,
		"spotdc_wal_fsyncs_total":    1, // record-policy append; snapshot seal finds nothing dirty
		"spotdc_wal_snapshots_total": 1,
		"spotdc_wal_snapshot_bytes":  1,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// A torn tail bumps the recovery truncation counter on reopen.
	seg := l.segPath(1)
	if err := os.WriteFile(seg, []byte{frameMagic}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _ := openT(t, Options{Dir: dir, Metrics: NewMetrics(reg)})
	defer l2.Close()
	if got, _ := reg.Value("spotdc_wal_recovery_truncations_total"); got != 1 {
		t.Errorf("truncations = %v, want 1", got)
	}
}

// TestOversizeAndFailAreSticky: a record or snapshot too large for the u24
// length field, and a failure the caller reports through Fail, each stop
// the log at its last complete record — Err reports the first cause, later
// appends are refused, and what was appended before recovers intact.
func TestOversizeAndFailAreSticky(t *testing.T) {
	boom := errors.New("encoder failed")
	for name, breakIt := range map[string]func(*Log) error{
		"oversize-append":   func(l *Log) error { _, err := l.Append(1, make([]byte, MaxRecord+1)); return err },
		"oversize-snapshot": func(l *Log) error { return l.Snapshot(make([]byte, MaxRecord+1)) },
		"fail":              func(l *Log) error { l.Fail(boom); return boom },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, Options{Dir: dir, Policy: SyncEveryRecord})
			if _, err := l.Append(1, []byte("kept")); err != nil {
				t.Fatal(err)
			}
			first := breakIt(l)
			if first == nil || l.Err() == nil || l.Err().Error() != first.Error() {
				t.Fatalf("failure returned %v, Err() = %v", first, l.Err())
			}
			if _, err := l.Append(1, []byte("after")); err == nil || err.Error() != first.Error() {
				t.Fatalf("Append after the failure: %v, want the sticky %v", err, first)
			}
			if l.Fail(errors.New("second cause")); l.Err().Error() != first.Error() {
				t.Fatalf("a later Fail replaced the first cause: %v", l.Err())
			}
			l.Close()
			_, rec := openT(t, Options{Dir: dir})
			if len(rec.Records) != 1 || string(rec.Records[0].Data) != "kept" || rec.Snapshot != nil {
				t.Fatalf("recovered %+v", rec)
			}
		})
	}
}

// TestAppendReusesFrameBuffer: a record is assembled whole (header,
// payload, CRC) in the log's reused frame buffer and written from there,
// so the steady-state append allocates nothing.
func TestAppendReusesFrameBuffer(t *testing.T) {
	l, _ := openT(t, Options{Dir: t.TempDir(), Policy: SyncTimer, TimerInterval: time.Hour})
	defer l.Close()
	payload := bytes.Repeat([]byte{0xab}, 4096)
	if _, err := l.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append: %.1f allocs/op, want 0", allocs)
	}
	if want := headerSize + len(payload) + crcSize; len(l.frame) != want {
		t.Errorf("frame scratch holds %d bytes, want one %d-byte frame", len(l.frame), want)
	}
}
