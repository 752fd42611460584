package proto

import (
	"strings"
	"testing"
	"time"
)

// TestReconnectMidSlotReplacesNotDuplicates is the regression for the
// double-billing path this PR closes: a tenant whose session drops
// mid-slot and who resubmits its bid after reconnecting must end up with
// exactly ONE bid for the slot — the keyed replacement — never a second
// entry that would grant (and bill) the rack twice in the same clearing.
func TestReconnectMidSlotReplacesNotDuplicates(t *testing.T) {
	s := newServerOpts(t, ServerOptions{SessionTTL: 80 * time.Millisecond})
	c, err := DialOpts(s.Addr(), "tenant-a", []string{"S-1"}, ClientOptions{
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		MaxAttempts: 30,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSessions(t, s, 1)

	// Anchor the market position: slot 1 is the in-flight slot.
	s.TakeBids(0)
	if err := c.SubmitBids(1, []RackBid{{Rack: "S-1", DMax: 10, QMin: 0.05, DMin: 2, QMax: 0.2}}); err != nil {
		t.Fatal(err)
	}
	deadlineAt := time.Now().Add(2 * time.Second)
	for s.BufferedBids(1) < 1 {
		if time.Now().After(deadlineAt) {
			t.Fatal("pre-drop bid never buffered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The session drops mid-slot (idle reap simulates the half-open loss).
	deadlineAt = time.Now().Add(2 * time.Second)
	for len(s.Sessions()) != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Resubmit across the reconnect. The first write on the dead
	// connection may be silently buffered by the kernel, so keep
	// resubmitting until the re-hello restores the session, then send one
	// authoritative replacement on the live session.
	replacement := []RackBid{{Rack: "S-1", DMax: 30, QMin: 0.05, DMin: 2, QMax: 0.3}}
	deadlineAt = time.Now().Add(2 * time.Second)
	for len(s.Sessions()) == 0 {
		if time.Now().After(deadlineAt) {
			t.Fatal("session never reconnected")
		}
		_ = c.SubmitBids(1, replacement)
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.SubmitBids(1, replacement); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	// Exactly one bid survives for the slot, and it is the replacement.
	bids := s.TakeBids(1)
	if len(bids) != 1 {
		t.Fatalf("slot 1 holds %d bids after reconnect resubmit, want 1 (duplicates double-bill)", len(bids))
	}
	if got := bids[0].Fn.MaxDemand(); got != 30 {
		t.Errorf("surviving bid DMax = %v, want the 30 W replacement", got)
	}

	// A resubmit that lands after the operator drained the slot is stale:
	// it must be rejected, never buffered into the closed slot where a
	// later drain (or pruning bug) could bill it.
	if err := c.SubmitBids(1, replacement); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if n := s.BufferedBids(1); n != 0 {
		t.Errorf("%d stale bids buffered for the drained slot — would double-bill", n)
	}
	if late := s.TakeBids(1); len(late) != 0 {
		t.Errorf("drained slot yielded %d late bids", len(late))
	}
}

// TestHelloRejectsForeignRack: with OwnerOf wired, a tenant cannot register
// a rack owned by someone else — the misattributed-revenue path the
// operator's books can't reconcile.
func TestHelloRejectsForeignRack(t *testing.T) {
	s := newServerOpts(t, ServerOptions{
		OwnerOf: func(idx int) string {
			if idx == 0 {
				return "tenant-a" // S-1 belongs to tenant-a
			}
			return ""
		},
	})
	if _, err := Dial(s.Addr(), "mallory", []string{"S-1"}); err == nil {
		t.Fatal("hello claiming a foreign rack succeeded")
	} else if !strings.Contains(err.Error(), "belongs to") {
		t.Errorf("err = %v, want ownership rejection", err)
	}
	// The rightful owner still registers, and unowned racks stay open.
	c, err := Dial(s.Addr(), "tenant-a", []string{"S-1", "S-2"})
	if err != nil {
		t.Fatalf("rightful owner rejected: %v", err)
	}
	c.Close()
}
