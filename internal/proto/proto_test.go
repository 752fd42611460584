package proto

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"spotdc/internal/core"
)

// testRacks resolves four rack IDs.
func testResolver() RackResolver {
	racks := map[string]int{"S-1": 0, "S-2": 1, "O-1": 2, "O-2": 3}
	return func(id string) (int, bool) {
		i, ok := racks[id]
		return i, ok
	}
}

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", testResolver())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewCodec(a), NewCodec(b)
	defer ca.Close()
	defer cb.Close()
	go func() {
		_ = ca.Send(Message{Type: TypeBid, Tenant: "t", Slot: 3, Bids: []RackBid{{Rack: "S-1", DMax: 50, QMin: 0.1, DMin: 10, QMax: 0.4}}})
	}()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeBid || got.Tenant != "t" || got.Slot != 3 || len(got.Bids) != 1 {
		t.Errorf("got %+v", got)
	}
	if got.Bids[0].DMax != 50 || got.Bids[0].QMax != 0.4 {
		t.Errorf("bid %+v", got.Bids[0])
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	defer cb.Close()
	go func() {
		a.Write([]byte("this is not json\n"))
		a.Close()
	}()
	if _, err := cb.Recv(); !errors.Is(err, ErrProtocol) {
		t.Errorf("garbage accepted: %v", err)
	}
}

func TestCodecMissingType(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	defer cb.Close()
	go func() {
		a.Write([]byte(`{"tenant":"x"}` + "\n"))
		a.Close()
	}()
	if _, err := cb.Recv(); !errors.Is(err, ErrProtocol) {
		t.Errorf("typeless message accepted: %v", err)
	}
}

func TestCodecEOF(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	defer cb.Close()
	a.Close()
	if _, err := cb.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestDialAndHello(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1", "O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Tenant() != "tenant-a" {
		t.Errorf("tenant = %s", c.Tenant())
	}
	// The session registers.
	deadlineAt := time.Now().Add(time.Second)
	for {
		if ss := s.Sessions(); len(ss) == 1 && ss[0] == "tenant-a" {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("session not registered: %v", s.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDialUnknownRackRejected(t *testing.T) {
	s := newServer(t)
	if _, err := Dial(s.Addr(), "tenant-a", []string{"NOPE"}); err == nil {
		t.Fatal("unknown rack accepted")
	} else if !strings.Contains(err.Error(), "unknown rack") {
		t.Errorf("err = %v", err)
	}
}

func TestDialDuplicateTenantRejected(t *testing.T) {
	s := newServer(t)
	c1, err := Dial(s.Addr(), "dup", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Dial(s.Addr(), "dup", []string{"S-2"}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
}

func TestDialEmptyTenant(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "", nil); err == nil {
		t.Fatal("empty tenant accepted")
	}
}

func TestBidSubmissionAndCollection(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1", "O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.SubmitBids(7, []RackBid{
		{Rack: "S-1", DMax: 40, QMin: 0.2, DMin: 20, QMax: 0.5},
		{Rack: "O-1", DMax: 60, QMin: 0.02, DMin: 5, QMax: 0.16},
	})
	if err != nil {
		t.Fatal(err)
	}
	bids := awaitBids(t, s, 7, 2)
	if len(bids) != 2 {
		t.Fatalf("bids = %d", len(bids))
	}
	byRack := map[int]core.Bid{}
	for _, b := range bids {
		byRack[b.Rack] = b
	}
	if b, ok := byRack[0]; !ok || b.Tenant != "tenant-a" || b.Fn.MaxDemand() != 40 {
		t.Errorf("S-1 bid: %+v", byRack[0])
	}
	if b, ok := byRack[2]; !ok || b.Fn.MaxPrice() != 0.16 {
		t.Errorf("O-1 bid: %+v", byRack[2])
	}
	// Bids are drained: second take is empty.
	if again := s.TakeBids(7); len(again) != 0 {
		t.Errorf("bids not drained: %v", again)
	}
}

// awaitBids waits until want bids are buffered for the slot (submission is
// asynchronous over TCP), then drains them with a single TakeBids.
func awaitBids(t *testing.T, s *Server, slot, want int) []core.Bid {
	t.Helper()
	deadlineAt := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadlineAt) && s.BufferedBids(slot) < want {
		time.Sleep(5 * time.Millisecond)
	}
	// Drain exactly once: TakeBids advances the market position, after which
	// further submissions for the slot are rejected as stale.
	return s.TakeBids(slot)
}

func TestBidResubmissionReplaces(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 10, QMax: 0.1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 30, QMax: 0.3}}); err != nil {
		t.Fatal(err)
	}
	// Allow both to land, then confirm only the replacement remains.
	time.Sleep(100 * time.Millisecond)
	bids := s.TakeBids(1)
	if len(bids) != 1 || bids[0].Fn.MaxDemand() != 30 {
		t.Errorf("bids = %+v, want single replaced bid of 30 W", bids)
	}
}

func TestStaleBidsDropped(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 10, QMax: 0.1}}); err != nil {
		t.Fatal(err)
	}
	awaitBids(t, s, 1, 1) // ensure it landed... then resubmit for slot 1
	if err := c.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 10, QMax: 0.1}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// Collecting slot 5 drops the stale slot-1 bid.
	if bids := s.TakeBids(5); len(bids) != 0 {
		t.Errorf("slot 5 bids = %v", bids)
	}
	if bids := s.TakeBids(1); len(bids) != 0 {
		t.Errorf("stale bids survived: %v", bids)
	}
}

func TestInvalidBidRejected(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// DMin > DMax is invalid; the server must reject and reply with error.
	if err := c.SubmitBids(2, []RackBid{{Rack: "S-1", DMax: 5, DMin: 50, QMax: 0.3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AwaitPrice(2, time.Second); !errors.Is(err, ErrProtocol) {
		t.Errorf("expected protocol error reply, got %v", err)
	}
	if bids := s.TakeBids(2); len(bids) != 0 {
		t.Errorf("invalid bid stored: %v", bids)
	}
	// Unregistered rack likewise.
	if err := c.SubmitBids(3, []RackBid{{Rack: "O-1", DMax: 5, QMax: 0.3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AwaitPrice(3, time.Second); !errors.Is(err, ErrProtocol) {
		t.Errorf("expected protocol error for unregistered rack, got %v", err)
	}
}

func TestBroadcastDeliversGrants(t *testing.T) {
	s := newServer(t)
	rackIDs := []string{"S-1", "S-2", "O-1", "O-2"}
	a, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(s.Addr(), "tenant-b", []string{"O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitSessions(t, s, 2)

	allocs := []core.Allocation{
		{Rack: 0, Tenant: "tenant-a", Watts: 25},
		{Rack: 2, Tenant: "tenant-b", Watts: 40},
	}
	s.Broadcast(4, 0.21, allocs, func(i int) string { return rackIDs[i] })

	priceA, grantsA, err := a.AwaitPrice(4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if priceA != 0.21 || len(grantsA) != 1 || grantsA[0].Rack != "S-1" || grantsA[0].Watts != 25 {
		t.Errorf("tenant-a: %v %v", priceA, grantsA)
	}
	priceB, grantsB, err := b.AwaitPrice(4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if priceB != 0.21 || len(grantsB) != 1 || grantsB[0].Rack != "O-1" || grantsB[0].Watts != 40 {
		t.Errorf("tenant-b: %v %v", priceB, grantsB)
	}
}

func TestAwaitPriceTimeoutMeansNoSpot(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.AwaitPrice(9, 150*time.Millisecond); !errors.Is(err, ErrNoPrice) {
		t.Errorf("want ErrNoPrice, got %v", err)
	}
}

func TestAwaitPriceSkipsStaleAndHeartbeats(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)
	if err := c.HeartBeat(1); err != nil { // triggers a heartbeat reply
		t.Fatal(err)
	}
	s.Broadcast(1, 0.1, nil, func(int) string { return "" }) // stale
	s.Broadcast(2, 0.3, nil, func(int) string { return "" }) // the one we want
	price, _, err := c.AwaitPrice(2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if price != 0.3 {
		t.Errorf("price = %v", price)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Communication loss → the tenant sees no price and defaults to no
	// spot capacity (Section III-C).
	if _, _, err := c.AwaitPrice(1, 500*time.Millisecond); err == nil {
		t.Error("expected failure after server close")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func waitSessions(t *testing.T, s *Server, n int) {
	t.Helper()
	deadlineAt := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadlineAt) {
		if len(s.Sessions()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("only %d sessions", len(s.Sessions()))
}

func TestEndToEndMarketRound(t *testing.T) {
	// A miniature Fig. 5 round: two remote tenants bid, the operator-side
	// clears with core.Market, and grants flow back.
	s := newServer(t)
	rackIDs := []string{"S-1", "S-2", "O-1", "O-2"}
	a, err := Dial(s.Addr(), "sprint", []string{"S-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(s.Addr(), "opp", []string{"O-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.SubmitBids(0, []RackBid{{Rack: "S-1", DMax: 30, QMin: 0.2, DMin: 25, QMax: 0.45}}); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitBids(0, []RackBid{{Rack: "O-1", DMax: 60, QMin: 0.02, DMin: 5, QMax: 0.16}}); err != nil {
		t.Fatal(err)
	}
	bids := awaitBids(t, s, 0, 2)
	if len(bids) != 2 {
		t.Fatalf("bids = %d", len(bids))
	}
	mkt, err := core.NewMarket(core.Constraints{
		RackHeadroom: []float64{60, 50, 60, 50},
		RackPDU:      []int{0, 0, 0, 0},
		PDUSpot:      []float64{100},
		UPSSpot:      100,
	}, core.Options{PriceStep: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mkt.Clear(bids)
	if err != nil {
		t.Fatal(err)
	}
	s.Broadcast(0, res.Price, res.Allocations, func(i int) string { return rackIDs[i] })

	priceA, grantsA, err := a.AwaitPrice(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if priceA != res.Price {
		t.Errorf("sprint price %v != clearing %v", priceA, res.Price)
	}
	totalA := 0.0
	for _, g := range grantsA {
		totalA += g.Watts
	}
	if totalA <= 0 {
		t.Error("sprint tenant got nothing despite available spot")
	}
	if _, _, err := b.AwaitPrice(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
