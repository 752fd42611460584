package proto

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"spotdc/internal/otrace"
)

// ErrNoPrice reports that no price broadcast arrived for the awaited slot;
// per Section III-C the tenant then defaults to "no spot capacity".
var ErrNoPrice = errors.New("proto: no price broadcast for slot")

// ErrReconnectFailed reports that an automatic reconnect exhausted its
// attempt budget; the session is gone until the caller dials again.
var ErrReconnectFailed = errors.New("proto: reconnect failed")

// ClientOptions tunes the tenant-side endpoint. The zero value preserves
// the historical behavior: no automatic reconnect, plain TCP dialing.
type ClientOptions struct {
	// Reconnect enables automatic redial with exponential backoff and
	// jitter whenever the connection drops. The re-dial replays the hello
	// (re-registering the client's racks), so a transient loss costs at
	// most the slots it spans — the Section III-C no-spot default — rather
	// than evicting the tenant from the market permanently.
	Reconnect bool
	// BackoffBase is the first retry delay (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth (default 5s).
	BackoffMax time.Duration
	// MaxAttempts bounds redial attempts per outage (default 8;
	// negative means unlimited — bound it with AwaitPrice deadlines).
	MaxAttempts int
	// Seed drives the backoff jitter, making outage schedules
	// reproducible in tests.
	Seed int64
	// OnReconnect, if non-nil, observes every redial attempt: err is nil
	// when the attempt restored the session.
	OnReconnect func(attempt int, err error)
	// HandshakeTimeout bounds the dial + hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// Dialer replaces the TCP dialer — the fault-injection hook (see
	// FaultInjector.Dial). Default net.DialTimeout over HandshakeTimeout.
	Dialer func(addr string) (net.Conn, error)
	// Wire selects the session's wire encoding (default WireJSON — the
	// interop default). The server detects the encoding from the client's
	// first byte and answers in kind, so mixed fleets share one market.
	Wire Encoding
	// Metrics, if non-nil, counts restored sessions on the shared protocol
	// handle set (spotdc_proto_client_reconnects_total).
	Metrics *Metrics
	// OnBudgetReset, if non-nil, observes emergency budget resets pushed by
	// the operator (Section III-C): budgets carries the new per-rack power
	// budgets in watts for this tenant's racks. It runs on the goroutine
	// driving AwaitPrice, which keeps waiting for the price afterwards; the
	// tenant drives its capping controller to the reduced budget here. Nil
	// leaves budget resets ignored (operator-side enforcement still caps
	// the rack). budgets may reference codec-owned decode scratch: it is
	// only valid for the duration of the callback — copy to retain.
	OnBudgetReset func(slot int, budgets []Grant)
	// Logf, if non-nil, narrates redial attempts. Default silent:
	// reconnects are expected operation under churn and are surfaced via
	// Metrics and OnReconnect.
	Logf func(format string, args ...interface{})
	// Tracer, if non-nil, opens tenant-side spans: one provisional
	// tenant_slot root per slot with submit and await_price children
	// (harnesses add bid_decision via SlotSpan). When the slot's price
	// broadcast delivers the operator's traceparent the provisional trace
	// is adopted into the operator's slot trace (otrace.Tracer.Adopt), so
	// tenant spans parent under the operator's broadcast across the wire.
	// Nil is free.
	Tracer *otrace.Tracer
}

func (o *ClientOptions) setDefaults() {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = deadline
	}
}

// Client is the tenant-side endpoint: it registers racks, submits bids,
// and awaits the price broadcast each slot. Methods are not safe for
// concurrent use; drive one Client from one goroutine (the per-slot bidding
// loop of Fig. 6).
type Client struct {
	tenant string
	addr   string
	racks  []string
	opts   ClientOptions
	rng    *rand.Rand

	conn  net.Conn
	codec Wire

	// grantScratch backs the slices returned by AwaitPrice: the binary
	// codec's decode scratch is overwritten by the next Recv, so grants are
	// copied into a client-owned buffer reused across slots (alloc-free in
	// steady state). The returned slice is valid until the next AwaitPrice.
	grantScratch []Grant

	// root is the current slot's provisional tenant_slot span (nil with
	// tracing off); rootSlot is the slot it covers.
	root     *otrace.Span
	rootSlot int

	reconnects int
}

// Dial connects to the operator and registers the tenant's racks with
// default options (no automatic reconnect).
func Dial(addr, tenantName string, racks []string) (*Client, error) {
	return DialOpts(addr, tenantName, racks, ClientOptions{})
}

// DialOpts connects with explicit options.
func DialOpts(addr, tenantName string, racks []string, opts ClientOptions) (*Client, error) {
	if tenantName == "" {
		return nil, errors.New("proto: empty tenant name")
	}
	opts.setDefaults()
	c := &Client{
		tenant: tenantName,
		addr:   addr,
		racks:  append([]string(nil), racks...),
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and performs the hello handshake, installing the fresh
// connection on success.
func (c *Client) connect() error {
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, c.opts.HandshakeTimeout)
		}
	}
	conn, err := dial(c.addr)
	if err != nil {
		return err
	}
	var codec Wire
	if c.opts.Wire == WireBinary {
		codec = NewBinaryCodec(conn)
	} else {
		codec = NewCodec(conn)
	}
	setConnDeadline(conn, c.opts.HandshakeTimeout)
	if err := codec.Send(Message{Type: TypeHello, Tenant: c.tenant, Racks: c.racks}); err != nil {
		conn.Close()
		return err
	}
	// The server acks the hello with a heartbeat (or rejects with error).
	msg, err := codec.Recv()
	if err != nil {
		conn.Close()
		return err
	}
	if msg.Type == TypeError {
		conn.Close()
		return fmt.Errorf("%w: %s", ErrProtocol, msg.Detail)
	}
	if msg.Type != TypeHeartBeat {
		conn.Close()
		return fmt.Errorf("%w: expected heartbeat ack, got %q", ErrProtocol, msg.Type)
	}
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn, c.codec = conn, codec
	return nil
}

// reconnect redials with exponential backoff and jitter until the session
// is restored, the attempt budget is exhausted, or the deadline (if
// non-zero) passes. cause is the error that broke the connection.
func (c *Client) reconnect(cause error, deadlineAt time.Time) error {
	if !c.opts.Reconnect {
		return cause
	}
	backoff := c.opts.BackoffBase
	var last error = cause
	for attempt := 1; c.opts.MaxAttempts < 0 || attempt <= c.opts.MaxAttempts; attempt++ {
		// Full jitter in [backoff/2, backoff): desynchronizes tenants
		// reconnecting after a shared outage.
		sleep := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		if !deadlineAt.IsZero() && time.Now().Add(sleep).After(deadlineAt) {
			return fmt.Errorf("%w: deadline passed after %d attempts: %v", ErrReconnectFailed, attempt-1, last)
		}
		time.Sleep(sleep)
		err := c.connect()
		if c.opts.OnReconnect != nil {
			c.opts.OnReconnect(attempt, err)
		}
		if c.opts.Logf != nil {
			if err != nil {
				c.opts.Logf("proto: %s redial attempt %d failed: %v", c.tenant, attempt, err)
			} else {
				c.opts.Logf("proto: %s session restored on attempt %d", c.tenant, attempt)
			}
		}
		if err == nil {
			c.reconnects++
			c.opts.Metrics.clientReconnected()
			return nil
		}
		last = err
		if backoff < c.opts.BackoffMax {
			backoff *= 2
			if backoff > c.opts.BackoffMax {
				backoff = c.opts.BackoffMax
			}
		}
	}
	return fmt.Errorf("%w: %d attempts, last error: %v", ErrReconnectFailed, c.opts.MaxAttempts, last)
}

// Reconnects returns how many times the client restored a dropped session.
func (c *Client) Reconnects() int { return c.reconnects }

// SlotSpan returns the client's provisional root span for the slot,
// opening it on first use; submit, await_price, and harness-side
// bid_decision spans parent under it. Moving to a new slot ends the
// previous slot's span (its trace publishes or drops per the decision it
// reached — adopted slots follow the operator's, broadcast-less slots
// the local head sampling). Returns nil with tracing off.
func (c *Client) SlotSpan(slot int) *otrace.Span {
	if c.opts.Tracer == nil {
		return nil
	}
	if c.root != nil && c.rootSlot == slot {
		return c.root
	}
	c.endSlotSpan()
	c.root = c.opts.Tracer.StartProvisionalRoot("tenant_slot", slot)
	c.root.SetStr("tenant", c.tenant)
	c.rootSlot = slot
	return c.root
}

// endSlotSpan closes the current slot's provisional root, if any.
func (c *Client) endSlotSpan() {
	if c.root != nil {
		c.root.End()
		c.root = nil
	}
}

// Tenant returns the registered tenant name.
func (c *Client) Tenant() string { return c.tenant }

// SubmitBids sends the slot's rack-level demand functions. With Reconnect
// enabled a failed send triggers one redial-and-retry; if the retry also
// fails the bid is lost and the tenant simply has no spot capacity for the
// slot (Section III-C).
func (c *Client) SubmitBids(slot int, bids []RackBid) error {
	sp := c.opts.Tracer.StartChild("submit", c.SlotSpan(slot))
	sp.SetInt("bids", int64(len(bids)))
	msg := Message{Type: TypeBid, Tenant: c.tenant, Slot: slot, Bids: bids}
	if sp != nil {
		// Upward propagation is informational (the operator's slot trace
		// does not exist yet when bids go out); the authoritative join is
		// the downward traceparent on the price broadcast.
		msg.Trace = otrace.FormatTraceparent(sp.Context())
	}
	err := c.submitOnce(msg, sp)
	sp.End()
	return err
}

// submitOnce sends a bid message with the one redial-and-retry policy.
func (c *Client) submitOnce(msg Message, sp *otrace.Span) error {
	setConnDeadline(c.conn, deadline)
	err := c.codec.Send(msg)
	if err == nil || !c.opts.Reconnect {
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		return err
	}
	if rerr := c.reconnect(err, time.Time{}); rerr != nil {
		sp.SetStr("error", rerr.Error())
		return rerr
	}
	sp.SetBool("resent", true)
	setConnDeadline(c.conn, deadline)
	if err := c.codec.Send(msg); err != nil {
		sp.SetStr("error", err.Error())
		return err
	}
	return nil
}

// HeartBeat exchanges a keep-alive for the slot.
func (c *Client) HeartBeat(slot int) error {
	setConnDeadline(c.conn, deadline)
	err := c.codec.Send(Message{Type: TypeHeartBeat, Tenant: c.tenant, Slot: slot})
	if err == nil || !c.opts.Reconnect {
		return err
	}
	if rerr := c.reconnect(err, time.Time{}); rerr != nil {
		return rerr
	}
	setConnDeadline(c.conn, deadline)
	return c.codec.Send(Message{Type: TypeHeartBeat, Tenant: c.tenant, Slot: slot})
}

// AwaitPrice blocks until the price broadcast for the slot arrives or the
// timeout expires. Heartbeats, stale price messages, and error replies for
// other slots (e.g. a late rejection of last slot's bid) are skipped —
// only an error reply for the awaited slot is returned. On timeout it
// returns ErrNoPrice: the tenant must assume no spot capacity. With
// Reconnect enabled a broken connection is redialed within the timeout
// and the wait resumes; if the price was broadcast while the link was
// down, the wait ends in ErrNoPrice — the no-spot default, never a
// wrong price.
func (c *Client) AwaitPrice(slot int, timeout time.Duration) (price float64, grants []Grant, err error) {
	if c.opts.Tracer == nil {
		return c.awaitPrice(slot, timeout, nil)
	}
	root := c.SlotSpan(slot)
	sp := c.opts.Tracer.StartChild("await_price", root)
	price, grants, err = c.awaitPrice(slot, timeout, root)
	if err != nil {
		sp.SetStr("error", err.Error())
	} else {
		sp.SetFloat("price", price)
		sp.SetInt("grants", int64(len(grants)))
	}
	sp.End()
	// The slot is settled for this tenant either way; close the root so
	// the trace publishes (or drops) now rather than at the next slot.
	c.endSlotSpan()
	return price, grants, err
}

// awaitPrice is AwaitPrice's wait loop; root, when non-nil, is the
// slot's provisional span to adopt into the operator's trace when the
// price broadcast delivers a traceparent.
func (c *Client) awaitPrice(slot int, timeout time.Duration, root *otrace.Span) (price float64, grants []Grant, err error) {
	deadlineAt := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadlineAt)
		if remaining <= 0 {
			return 0, nil, ErrNoPrice
		}
		_ = c.conn.SetReadDeadline(time.Now().Add(remaining))
		msg, err := c.codec.Recv()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return 0, nil, ErrNoPrice
			}
			if c.opts.Reconnect {
				if rerr := c.reconnect(err, deadlineAt); rerr != nil {
					// The session is gone for this slot: the safe default
					// is no spot capacity.
					return 0, nil, fmt.Errorf("%w (%v)", ErrNoPrice, rerr)
				}
				continue
			}
			if errors.Is(err, io.EOF) {
				return 0, nil, ErrNoPrice
			}
			return 0, nil, err
		}
		switch {
		case msg.Type == TypePrice && msg.Slot == slot:
			if root != nil && msg.Trace != "" {
				// The broadcast carries the operator's slot trace: re-home
				// the provisional tenant trace under it, inheriting the
				// operator's sampling decision.
				if rctx, perr := otrace.ParseTraceparent(msg.Trace); perr == nil {
					c.opts.Tracer.Adopt(root, rctx)
				}
			}
			// Copy out of codec-owned decode scratch (see Wire.Recv); the
			// returned slice is valid until the next AwaitPrice call.
			c.grantScratch = append(c.grantScratch[:0], msg.Grants...)
			grants = c.grantScratch
			if len(grants) == 0 {
				grants = nil
			}
			return msg.Price, grants, nil
		case msg.Type == TypePrice && msg.Slot < slot:
			continue // stale broadcast
		case msg.Type == TypeHeartBeat:
			continue
		case msg.Type == TypeBudgetReset:
			// Emergency budget resets arrive inside the price wait (the
			// operator pushes them just before the slot's price broadcast).
			if c.opts.OnBudgetReset != nil && len(msg.Grants) > 0 {
				c.opts.OnBudgetReset(msg.Slot, msg.Grants)
			}
			continue
		case msg.Type == TypeError && msg.Slot == slot:
			return 0, nil, fmt.Errorf("%w: %s", ErrProtocol, msg.Detail)
		case msg.Type == TypeError:
			continue // stale rejection for another slot: not our market
		default:
			continue
		}
	}
}

// Close terminates the session.
func (c *Client) Close() error {
	c.endSlotSpan()
	return c.codec.Close()
}
