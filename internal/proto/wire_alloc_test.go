package proto

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spotdc/internal/core"
)

// discardConn is a write-only sink that counts frames: the fan-out fixture
// hangs binary codecs off it so broadcast tests and benchmarks can wait for
// the writer goroutines to drain without real sockets (4096 sessions would
// exhaust fd limits long before they stressed the fan-out).
type discardConn struct{ frames *atomic.Int64 }

func (d *discardConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (d *discardConn) Write(p []byte) (int, error) { d.frames.Add(1); return len(p), nil }
func (d *discardConn) Close() error                { return nil }

// repeatReader serves the same frame forever — the decode side of the
// steady-state codec measurements.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.frame) {
		r.off = 0
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	return n, nil
}

// newFanoutServer builds a listenerless server with n synthetic sessions,
// each with a live writer goroutine draining to a shared frame counter.
// Tenant i is named t<i> and owns rack R<i>.
func newFanoutServer(n int, wire Encoding, opts ServerOptions) (*Server, *atomic.Int64) {
	s := newServerState(opts)
	frames := new(atomic.Int64)
	for i := 0; i < n; i++ {
		sink := &discardConn{frames: frames}
		var codec Wire
		if wire == WireBinary {
			codec = NewBinaryCodec(sink)
		} else {
			codec = NewCodec(sink)
		}
		sess := &session{
			tenant: fmt.Sprintf("t%04d", i),
			racks:  map[string]int{fmt.Sprintf("R%04d", i): i},
			codec:  codec,
			queue:  make(chan queuedMsg, queueDepth),
			quit:   make(chan struct{}),
		}
		sess.touch()
		s.sessions[sess.tenant] = sess
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.writeLoop(sess)
		}()
	}
	return s, frames
}

// fanoutAllocs builds one grant per tenant plus the rackID lookup.
func fanoutAllocs(n int) ([]core.Allocation, func(int) string) {
	allocs := make([]core.Allocation, n)
	ids := make([]string, n)
	for i := range allocs {
		allocs[i] = core.Allocation{Rack: i, Tenant: fmt.Sprintf("t%04d", i), Watts: 100 + float64(i)}
		ids[i] = fmt.Sprintf("R%04d", i)
	}
	return allocs, func(i int) string { return ids[i] }
}

// drainTo blocks until the writer goroutines have emitted want frames.
func drainTo(tb testing.TB, frames *atomic.Int64, want int64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for frames.Load() < want {
		if time.Now().After(deadline) {
			tb.Fatalf("fan-out stalled: %d of %d frames written", frames.Load(), want)
		}
		runtime.Gosched()
	}
}

// TestWireAllocBudget is the protocol twin of TestClearAllocBudget: the
// steady-state hot path — binary Send, binary Recv, and the full Broadcast
// and BroadcastBudgetResetTraced fan-out including the writer goroutines — must
// perform zero heap allocations per operation once warm. AllocsPerRun
// measures process-wide mallocs, so the writers' sends are inside the
// budget, not just the enqueue.
func TestWireAllocBudget(t *testing.T) {
	msg := Message{Type: TypePrice, Tenant: "tenant-a", Slot: 42, Price: 0.0375, Grants: []Grant{
		{Rack: "R-1", Watts: 120}, {Rack: "R-2", Watts: 80},
		{Rack: "R-3", Watts: 60}, {Rack: "R-4", Watts: 40},
	}}

	t.Run("binary-send", func(t *testing.T) {
		enc := NewBinaryCodec(&discardConn{frames: new(atomic.Int64)})
		for i := 0; i < 100; i++ {
			if err := enc.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := enc.Send(msg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("binary Send: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("binary-recv", func(t *testing.T) {
		var buf memStream
		if err := NewBinaryCodec(&buf).Send(msg); err != nil {
			t.Fatal(err)
		}
		dec := newBinaryCodec(bufio.NewReader(&repeatReader{frame: buf.Bytes()}), &discardConn{frames: new(atomic.Int64)})
		for i := 0; i < 100; i++ {
			if _, err := dec.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := dec.Recv(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("binary Recv: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		const sessions = 8
		s, frames := newFanoutServer(sessions, WireBinary, ServerOptions{})
		defer s.Close()
		allocs, rackID := fanoutAllocs(sessions)
		var sent int64
		for i := 0; i < 50; i++ {
			s.Broadcast(i, 0.1, allocs, rackID)
			sent += sessions
			drainTo(t, frames, sent)
		}
		if a := testing.AllocsPerRun(20, func() {
			s.Broadcast(99, 0.1, allocs, rackID)
			sent += sessions
			drainTo(t, frames, sent)
		}); a != 0 {
			t.Errorf("Broadcast fan-out: %.1f allocs/op, want 0", a)
		}
	})

	t.Run("budget-reset", func(t *testing.T) {
		const sessions = 8
		s, frames := newFanoutServer(sessions, WireBinary, ServerOptions{})
		defer s.Close()
		budgets := make(map[int]float64, sessions)
		for i := 0; i < sessions; i++ {
			budgets[i] = 250
		}
		var sent int64
		for i := 0; i < 50; i++ {
			s.BroadcastBudgetResetTraced(i, budgets, nil)
			sent += sessions
			drainTo(t, frames, sent)
		}
		if a := testing.AllocsPerRun(20, func() {
			s.BroadcastBudgetResetTraced(99, budgets, nil)
			sent += sessions
			drainTo(t, frames, sent)
		}); a != 0 {
			t.Errorf("BroadcastBudgetResetTraced fan-out: %.1f allocs/op, want 0", a)
		}
	})
}
