package proto

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
)

// benchMsg is a representative price broadcast: four grants, realistic IDs.
var benchMsg = Message{Type: TypePrice, Tenant: "tenant-a", Slot: 42, Price: 0.0375, Grants: []Grant{
	{Rack: "R-001", Watts: 240.5}, {Rack: "R-002", Watts: 120.25},
	{Rack: "R-003", Watts: 60}, {Rack: "R-004", Watts: 30.75},
}}

// BenchmarkCodec measures one Send (to a sink) plus one Recv (from a
// pre-encoded frame) per iteration for each wire encoding — the per-message
// codec cost with transport factored out.
func BenchmarkCodec(b *testing.B) {
	for _, enc := range []Encoding{WireJSON, WireBinary} {
		b.Run(enc.String(), func(b *testing.B) {
			sink := &discardConn{frames: new(atomic.Int64)}
			var tx, rx Wire
			var pre memStream
			if enc == WireBinary {
				tx = NewBinaryCodec(sink)
				if err := NewBinaryCodec(&pre).Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				rx = newBinaryCodec(bufio.NewReader(&repeatReader{frame: pre.Bytes()}), sink)
			} else {
				tx = NewCodec(sink)
				if err := NewCodec(&pre).Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				rx = newJSONCodec(&repeatReader{frame: pre.Bytes()}, sink)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tx.Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				if _, err := rx.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newPipeFanoutServer builds a listenerless server whose n sessions ride
// real net.Pipe connections, each drained by a decoding reader goroutine
// that counts delivered frames — in-memory, but with a blocking transport:
// a send costs a rendezvous with its peer, as a socket write costs a
// syscall. Benchmarks use this; the alloc tests keep the discard sinks
// (pipe deadlines arm timers, which are not on the codec's alloc budget).
func newPipeFanoutServer(b *testing.B, n int, wire Encoding, opts ServerOptions) (*Server, *atomic.Int64) {
	b.Helper()
	s := newServerState(opts)
	frames := new(atomic.Int64)
	for i := 0; i < n; i++ {
		local, remote := net.Pipe()
		var codec, peer Wire
		if wire == WireBinary {
			codec, peer = NewBinaryCodec(local), NewBinaryCodec(remote)
		} else {
			codec, peer = NewCodec(local), NewCodec(remote)
		}
		go func() {
			for {
				if _, err := peer.Recv(); err != nil {
					return
				}
				frames.Add(1)
			}
		}()
		sess := &session{
			tenant: fmt.Sprintf("t%04d", i),
			racks:  map[string]int{fmt.Sprintf("R%04d", i): i},
			codec:  codec,
			conn:   local,
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
	b.Cleanup(func() { s.Close() })
	return s, frames
}

// BenchmarkBroadcast measures what the market loop pays per slot under the
// concurrent fan-out: the Server.Broadcast call itself — pooled grouping
// plus one bounded-queue enqueue per session, never a peer round-trip. The
// writer goroutines drain each slot off-timer (verified to completion, so
// a stalled writer hangs the benchmark instead of flattering it); their
// sends overlap the next slot's clearing in production, exactly as here.
// Compare BenchmarkBroadcastSerialJSON, the pre-refactor in-line cost.
func BenchmarkBroadcast(b *testing.B) {
	for _, sessions := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			s, frames := newPipeFanoutServer(b, sessions, WireBinary, ServerOptions{})
			allocs, rackID := fanoutAllocs(sessions)
			// Warm the pooled grouping and writer scratch.
			var sent int64
			for i := 0; i < 3; i++ {
				s.Broadcast(i, 0.1, allocs, rackID)
				sent += int64(sessions)
				drainTo(b, frames, sent)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Broadcast(i, 0.1, allocs, rackID)
				sent += int64(sessions)
				b.StopTimer()
				drainTo(b, frames, sent)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkBroadcastSerialJSON reproduces the pre-refactor broadcast — a
// fresh perTenant grouping map and one synchronous JSON send per session,
// in-line on the market loop's goroutine — over the same piped transport,
// as the baseline the concurrent fan-out is judged against.
func BenchmarkBroadcastSerialJSON(b *testing.B) {
	for _, sessions := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			codecs := make([]*Codec, sessions)
			tenants := make([]string, sessions)
			for i := range codecs {
				local, remote := net.Pipe()
				codecs[i] = NewCodec(local)
				peer := NewCodec(remote)
				go func() {
					for {
						if _, err := peer.Recv(); err != nil {
							return
						}
					}
				}()
				b.Cleanup(func() { local.Close(); remote.Close() })
				tenants[i] = fmt.Sprintf("t%04d", i)
			}
			allocs, rackID := fanoutAllocs(sessions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perTenant := make(map[string][]Grant)
				for _, a := range allocs {
					perTenant[a.Tenant] = append(perTenant[a.Tenant], Grant{Rack: rackID(a.Rack), Watts: a.Watts})
				}
				for j, c := range codecs {
					msg := Message{Type: TypePrice, Tenant: tenants[j], Slot: i, Price: 0.1, Grants: perTenant[tenants[j]]}
					if err := c.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
