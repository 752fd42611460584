package proto

import (
	"errors"
	"testing"
	"time"
)

// newServerOpts builds a test server with explicit robustness options.
func newServerOpts(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	s, err := NewServerOpts("127.0.0.1:0", testResolver(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSessionReapFreesTenantName(t *testing.T) {
	s := newServerOpts(t, ServerOptions{SessionTTL: 80 * time.Millisecond})
	c1, err := Dial(s.Addr(), "phoenix", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	waitSessions(t, s, 1)

	// The client goes silent (half-open from the server's view). The
	// reaper must expire the session and free the name.
	deadlineAt := time.Now().Add(2 * time.Second)
	for len(s.Sessions()) != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("idle session never reaped: %v", s.Sessions())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.ReapedSessions() == 0 {
		t.Error("reap counter not incremented")
	}
	// The tenant name is reusable.
	c2, err := Dial(s.Addr(), "phoenix", []string{"S-2"})
	if err != nil {
		t.Fatalf("re-dial after reap: %v", err)
	}
	defer c2.Close()
	waitSessions(t, s, 1)
}

func TestExpiredSessionEvictedByReHello(t *testing.T) {
	// Long reap interval: the sweep won't fire, so eviction must happen
	// on the duplicate hello itself.
	s := newServerOpts(t, ServerOptions{SessionTTL: 60 * time.Millisecond, reapInterval: 10 * time.Second})
	c1, err := Dial(s.Addr(), "dup", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	waitSessions(t, s, 1)
	time.Sleep(150 * time.Millisecond) // c1 is now expired but unswept

	c2, err := Dial(s.Addr(), "dup", []string{"S-2"})
	if err != nil {
		t.Fatalf("re-hello over expired session rejected: %v", err)
	}
	defer c2.Close()
	if s.ReapedSessions() == 0 {
		t.Error("eviction not counted")
	}
}

func TestLiveDuplicateStillRejected(t *testing.T) {
	s := newServerOpts(t, ServerOptions{SessionTTL: 10 * time.Second})
	c1, err := Dial(s.Addr(), "dup", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	waitSessions(t, s, 1)
	if _, err := Dial(s.Addr(), "dup", []string{"S-2"}); err == nil {
		t.Fatal("live duplicate accepted")
	}
}

func TestBidWindowRejectsFarFutureAndStale(t *testing.T) {
	s := newServerOpts(t, ServerOptions{BidWindow: 4})
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bid := []RackBid{{Rack: "S-1", DMax: 20, QMin: 0.05, DMin: 5, QMax: 0.2}}
	// Before the first collection any non-negative slot is accepted.
	if err := c.SubmitBids(3, bid); err != nil {
		t.Fatal(err)
	}
	if got := awaitBids(t, s, 3, 1); len(got) != 1 {
		t.Fatalf("pre-window bid not collected: %d", len(got))
	}

	// The market is now at slot 3. A far-future bid must be rejected —
	// previously it would sit in the bid map forever (unbounded growth).
	if err := c.SubmitBids(1000, bid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AwaitPrice(1000, time.Second); !errors.Is(err, ErrProtocol) {
		t.Errorf("far-future bid not rejected: %v", err)
	}
	if n := pendingBidSlots(s); n != 0 {
		t.Errorf("rejected bid left %d buffered slots", n)
	}

	// A stale bid (before the market position) is rejected too.
	if err := c.SubmitBids(2, bid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AwaitPrice(2, time.Second); !errors.Is(err, ErrProtocol) {
		t.Errorf("stale bid not rejected: %v", err)
	}

	// Bids within the window are accepted.
	if err := c.SubmitBids(6, bid); err != nil {
		t.Fatal(err)
	}
	if got := awaitBids(t, s, 6, 1); len(got) != 1 {
		t.Fatalf("in-window bid not collected: %d", len(got))
	}
}

func TestTakeBidsPrunesBeyondWindow(t *testing.T) {
	// If the window shrinks (reconfiguration), TakeBids prunes buffered
	// slots beyond it instead of leaking them.
	s := newServerOpts(t, ServerOptions{BidWindow: 8})
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bid := []RackBid{{Rack: "S-1", DMax: 20, QMin: 0.05, DMin: 5, QMax: 0.2}}
	for slot := 1; slot <= 6; slot++ {
		if err := c.SubmitBids(slot, bid); err != nil {
			t.Fatal(err)
		}
	}
	awaitBids(t, s, 1, 1)
	// Wait for the remaining five submissions to land (same connection,
	// processed in order, but asynchronously to this goroutine).
	deadlineAt := time.Now().Add(2 * time.Second)
	for pendingBidSlots(s) != 5 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("buffered slots = %d, want 5", pendingBidSlots(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	s.opts.BidWindow = 2 // simulate a tightened window
	s.mu.Unlock()
	got := s.TakeBids(2)
	if len(got) != 1 {
		t.Fatalf("slot 2 bids = %d", len(got))
	}
	// Slots 3,4 remain (within 2..4); 5,6 pruned.
	if n := pendingBidSlots(s); n != 2 {
		t.Errorf("buffered slots = %d, want 2 (beyond-window pruned)", n)
	}
}

func TestAwaitPriceSkipsStaleSlotErrors(t *testing.T) {
	// A late rejection of a previous slot's bid must not abort the wait
	// for the current slot's price (the doc-comment contract).
	s := newServerOpts(t, ServerOptions{BidWindow: 4})
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)
	bid := []RackBid{{Rack: "S-1", DMax: 20, QMin: 0.05, DMin: 5, QMax: 0.2}}
	if err := c.SubmitBids(4, bid); err != nil {
		t.Fatal(err)
	}
	awaitBids(t, s, 4, 1) // market now at slot 4
	// A stale bid for slot 1 provokes an error reply tagged slot 1.
	if err := c.SubmitBids(1, bid); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the rejection land first
	s.Broadcast(5, 0.3, nil, func(int) string { return "" })
	price, _, err := c.AwaitPrice(5, 2*time.Second)
	if err != nil {
		t.Fatalf("stale-slot error aborted the wait: %v", err)
	}
	if price != 0.3 {
		t.Errorf("price = %v", price)
	}
}

func TestClientReconnectResumesSession(t *testing.T) {
	// The server reaps the idle session (simulating a half-open drop);
	// the client's next await hits the closed connection, reconnects with
	// backoff, re-registers its racks, and the session resumes.
	s := newServerOpts(t, ServerOptions{SessionTTL: 80 * time.Millisecond})
	var attempts []error
	c, err := DialOpts(s.Addr(), "tenant-a", []string{"S-1"}, ClientOptions{
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		MaxAttempts: 30,
		Seed:        9,
		OnReconnect: func(attempt int, err error) { attempts = append(attempts, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)

	// Go silent until the server reaps us.
	deadlineAt := time.Now().Add(2 * time.Second)
	for len(s.Sessions()) != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Await a price: the dead connection must trigger a reconnect.
	got := make(chan error, 1)
	go func() {
		price, _, err := c.AwaitPrice(7, 3*time.Second)
		if err == nil && price != 0.42 {
			err = errors.New("wrong price")
		}
		got <- err
	}()
	waitSessions(t, s, 1) // the re-hello re-registers the tenant
	s.Broadcast(7, 0.42, nil, func(int) string { return "" })
	if err := <-got; err != nil {
		t.Fatalf("await across reconnect: %v", err)
	}
	if c.Reconnects() == 0 {
		t.Error("reconnect not counted")
	}
	if len(attempts) == 0 {
		t.Error("OnReconnect never observed an attempt")
	}

	// Bidding resumes on the restored session.
	if err := c.SubmitBids(8, []RackBid{{Rack: "S-1", DMax: 20, QMin: 0.05, DMin: 5, QMax: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if got := awaitBids(t, s, 8, 1); len(got) != 1 {
		t.Fatalf("post-reconnect bid not collected: %d", len(got))
	}
}

func TestReconnectDisabledFailsFast(t *testing.T) {
	s := newServerOpts(t, ServerOptions{SessionTTL: 60 * time.Millisecond})
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)
	deadlineAt := time.Now().Add(2 * time.Second)
	for len(s.Sessions()) != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Without Reconnect the await reports the loss (no-spot default or a
	// hard error) instead of silently redialing.
	if _, _, err := c.AwaitPrice(1, 300*time.Millisecond); err == nil {
		t.Error("await on dead session succeeded without reconnect")
	}
	if c.Reconnects() != 0 {
		t.Error("reconnect happened despite being disabled")
	}
}

// pendingBidSlots returns how many future slots hold buffered bids.
func pendingBidSlots(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bids)
}
