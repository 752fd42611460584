package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/otrace"
)

// RackResolver maps wire rack IDs to market rack indices.
type RackResolver func(id string) (int, bool)

// ServerOptions tunes the operator-side endpoint's robustness knobs. The
// zero value gives sensible production defaults.
type ServerOptions struct {
	// SessionTTL reaps a session that has sent nothing (bid or heartbeat)
	// for this long: a half-open connection must not block the tenant name
	// forever — the tenant simply has no spot capacity until it
	// reconnects (Section III-C). Default 60s; expired sessions are swept
	// every SessionTTL/4.
	SessionTTL time.Duration
	// BidWindow bounds how far ahead of the market a bid may be: once the
	// loop has collected slot t, only bids for slots (t, t+BidWindow] are
	// accepted. Anything further out is rejected (it would sit in the bid
	// map unpruned), anything at or before t is rejected as stale (it
	// missed its market — the no-spot default applies). Default 16.
	BidWindow int
	// OwnerOf, if non-nil, names the tenant that owns a rack index. A hello
	// claiming a rack owned by a different tenant is rejected outright:
	// without this check any connected tenant could register (and bid spot
	// capacity for) another tenant's racks. An empty owner leaves the rack
	// unclaimed (any tenant may register it).
	OwnerOf func(rackIdx int) string
	// WrapConn, if non-nil, wraps every accepted connection — the
	// fault-injection hook (see FaultInjector.Wrap).
	WrapConn func(net.Conn) net.Conn
	// Metrics, if non-nil, receives protocol instrumentation (sessions,
	// bid acceptance/rejection, broadcast outcomes, outbound queueing).
	// Typically shared with the run's clients and fault injectors.
	Metrics *Metrics
	// Tracer, if non-nil, opens one send span per session under each
	// traced broadcast (BroadcastTraced), timing the enqueue-to-write
	// path of the fan-out. Wire the MarketLoop's tracer here. Nil is free.
	Tracer *otrace.Tracer
	// Logf, if non-nil, receives the server's diagnostics. The default is
	// silent: protocol noise (reaped sessions, broadcast failures) is
	// expected operation under churn, so it is surfaced via Metrics and
	// only narrated when a caller opts in (e.g. cmd/spotdc-operator -v).
	Logf func(format string, args ...interface{})

	// reapInterval overrides the SessionTTL/4 sweep period (a test that
	// must see a session expire unswept sets it).
	reapInterval time.Duration
}

const (
	// writeTimeout bounds each outbound message write: a peer whose TCP
	// buffer stays full past the deadline fails the write and is dropped
	// to the no-spot default instead of blocking its writer goroutine
	// forever.
	writeTimeout = 5 * time.Second
	// queueDepth bounds each session's outbound queue (broadcasts, acks,
	// error replies). A session whose queue is full when the market tries
	// to enqueue is a slow consumer and is dropped — the Section III-C
	// no-spot default — so a single stalled peer costs the market loop one
	// failed enqueue, never a blocked slot.
	queueDepth = 32
)

func (o *ServerOptions) setDefaults() {
	if o.SessionTTL <= 0 {
		o.SessionTTL = 60 * time.Second
	}
	if o.reapInterval <= 0 {
		o.reapInterval = o.SessionTTL / 4
	}
	if o.reapInterval < time.Millisecond {
		o.reapInterval = time.Millisecond
	}
	if o.BidWindow <= 0 {
		o.BidWindow = 16
	}
}

// Server is the operator-side endpoint of Fig. 5: it accepts tenant
// sessions, collects their per-slot bids, and broadcasts clearing results.
// The market loop itself is driven externally (see operator/sim); the
// server only does transport and validation.
//
// Outbound traffic is fully asynchronous: every session owns a bounded
// queue drained by a writer goroutine, so Broadcast hands a slot off in
// O(sessions) cheap enqueues — independent of peer round-trip times — and
// a stalled peer is dropped by the slow-consumer policy instead of
// blocking the market loop.
type Server struct {
	ln      net.Listener
	resolve RackResolver
	opts    ServerOptions
	logf    func(format string, args ...interface{})
	met     *Metrics

	mu       sync.Mutex
	closed   bool
	sessions map[string]*session
	// bids[slot][tenant] holds validated bids awaiting collection.
	bids map[int]map[string][]core.Bid
	// taken is the most recent slot passed to TakeBids; bids are only
	// accepted inside (taken, taken+BidWindow]. Before the first take
	// (haveTaken false) any non-negative slot is accepted.
	taken     int
	haveTaken bool
	reaped    int // sessions expired by the reaper or evicted on re-hello

	// Broadcast scratch, guarded by bmu (one broadcast at a time): the
	// per-tenant grant grouping and the session snapshot are reused across
	// slots so a steady-state Broadcast performs zero heap allocations.
	bmu       sync.Mutex
	perTenant map[string]*[]Grant
	bTenants  []string
	sessSnap  []*session

	// free recycles grant buffers between broadcast producers and the
	// writer goroutines that release them after encoding. A plain mutexed
	// freelist rather than sync.Pool: GC never empties it, which keeps the
	// steady-state alloc budget at exactly zero.
	fmu  sync.Mutex
	free []*[]Grant

	wg   sync.WaitGroup
	stop chan struct{}
}

// queuedMsg is one pending outbound message. grants, when non-nil, is a
// pooled buffer owned by the queue entry; the writer returns it to the
// server freelist after encoding.
type queuedMsg struct {
	typ    MsgType
	slot   int
	price  float64
	grants *[]Grant
	detail string
	// trace is the preformatted traceparent field stamped onto the wire
	// message (formatted once per broadcast, not per session); parent is
	// the broadcast span's context that the per-session send span parents
	// under. Both zero when the broadcast is untraced.
	trace  string
	parent otrace.SpanContext
}

type session struct {
	tenant string
	racks  map[string]int // wire ID → rack index
	codec  Wire
	conn   net.Conn
	// lastSeen is the arrival time of the session's most recent message as
	// unix nanos; heartbeat floods update it without touching the server
	// mutex, so liveness refresh never contends with bid intake.
	lastSeen atomic.Int64

	// queue feeds the session's writer goroutine; qmu serializes enqueue
	// against the dropped transition so no message is enqueued after the
	// writer has been told to exit.
	queue   chan queuedMsg
	qmu     sync.Mutex
	dropped bool
	quit    chan struct{}
}

// touch refreshes the session's liveness timestamp (lock-free).
func (sess *session) touch() { sess.lastSeen.Store(time.Now().UnixNano()) }

// idleFor reports how long the session has been silent.
func (sess *session) idleFor(now time.Time) time.Duration {
	return time.Duration(now.UnixNano() - sess.lastSeen.Load())
}

// NewServer listens on addr ("127.0.0.1:0" for an ephemeral port) with
// default options.
func NewServer(addr string, resolve RackResolver) (*Server, error) {
	return NewServerOpts(addr, resolve, ServerOptions{})
}

// NewServerOpts listens on addr with explicit robustness options.
func NewServerOpts(addr string, resolve RackResolver, opts ServerOptions) (*Server, error) {
	if resolve == nil {
		return nil, errors.New("proto: nil rack resolver")
	}
	opts.setDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newServerState(opts)
	s.ln = ln
	s.resolve = resolve
	s.wg.Add(2)
	go s.acceptLoop()
	go s.reapLoop()
	return s, nil
}

// newServerState builds the listener-independent server core (benchmarks
// and alloc tests drive it with synthetic sessions, no TCP).
func newServerState(opts ServerOptions) *Server {
	opts.setDefaults()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {} // quiet by default; see ServerOptions.Logf
	}
	return &Server{
		opts:      opts,
		logf:      logf,
		met:       opts.Metrics,
		sessions:  make(map[string]*session),
		bids:      make(map[int]map[string][]core.Bid),
		perTenant: make(map[string]*[]Grant),
		stop:      make(chan struct{}),
	}
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.opts.WrapConn != nil {
			conn = s.opts.WrapConn(conn)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// reapLoop periodically expires half-open sessions: a session whose last
// message is older than SessionTTL is closed and its tenant name freed, so
// a crashed-and-restarted tenant can re-hello instead of being locked out.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.reapInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			s.reapExpired(now)
		}
	}
}

func (s *Server) reapExpired(now time.Time) {
	var expired []*session
	s.mu.Lock()
	for name, sess := range s.sessions {
		if sess.idleFor(now) > s.opts.SessionTTL {
			delete(s.sessions, name)
			s.reaped++
			s.met.sessionReaped()
			expired = append(expired, sess)
		}
	}
	s.met.setSessions(len(s.sessions))
	s.mu.Unlock()
	for _, sess := range expired {
		s.logf("proto: session %s expired (idle > %v), reaped", sess.tenant, s.opts.SessionTTL)
		s.dropSession(sess)
	}
}

// ReapedSessions returns how many sessions were expired or evicted.
func (s *Server) ReapedSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped
}

// negotiateCodec peeks the session's first byte to select its wire
// encoding: a binary frame opens with binMagic, JSON with '{'. The server
// answers in the same encoding for the life of the session.
func negotiateCodec(conn net.Conn) (Wire, error) {
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] == binMagic {
		return newBinaryCodec(br, conn), nil
	}
	return newJSONCodec(br, conn), nil
}

func (s *Server) handle(conn net.Conn) {
	setConnDeadline(conn, deadline)
	codec, err := negotiateCodec(conn)
	if err != nil {
		_ = conn.Close()
		return
	}
	defer codec.Close()
	hello, err := codec.Recv()
	if err != nil || hello.Type != TypeHello || hello.Tenant == "" {
		_ = codec.Send(Message{Type: TypeError, Detail: "expected hello with tenant name"})
		return
	}
	sess := &session{
		tenant: hello.Tenant,
		racks:  make(map[string]int, len(hello.Racks)),
		codec:  codec,
		conn:   conn,
		queue:  make(chan queuedMsg, queueDepth),
		quit:   make(chan struct{}),
	}
	for _, id := range hello.Racks {
		idx, ok := s.resolve(id)
		if !ok {
			_ = codec.Send(Message{Type: TypeError, Detail: fmt.Sprintf("unknown rack %q", id)})
			return
		}
		if s.opts.OwnerOf != nil {
			if own := s.opts.OwnerOf(idx); own != "" && own != hello.Tenant {
				_ = codec.Send(Message{Type: TypeError, Detail: fmt.Sprintf("rack %q belongs to tenant %s", id, own)})
				return
			}
		}
		sess.racks[id] = idx
	}
	var evict *session
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if old, dup := s.sessions[hello.Tenant]; dup {
		// A live duplicate is rejected; an expired one is a half-open
		// leftover of a dead connection — evict it so the reconnecting
		// tenant is not locked out until the next reaper sweep.
		if old.idleFor(time.Now()) <= s.opts.SessionTTL {
			s.mu.Unlock()
			_ = codec.Send(Message{Type: TypeError, Detail: "tenant already connected"})
			return
		}
		delete(s.sessions, hello.Tenant)
		s.reaped++
		s.met.sessionReaped()
		evict = old
	}
	sess.touch()
	s.sessions[hello.Tenant] = sess
	s.met.sessionOpened()
	s.met.setSessions(len(s.sessions))
	s.mu.Unlock()
	if evict != nil {
		s.logf("proto: session %s expired, evicted by re-hello", hello.Tenant)
		s.dropSession(evict)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.writeLoop(sess)
	}()
	s.enqueue(sess, queuedMsg{typ: TypeHeartBeat})

	defer func() {
		s.dropSession(sess)
		s.mu.Lock()
		// Only remove the entry if it is still ours: a reaper eviction
		// followed by a re-hello may have installed a fresh session under
		// the same tenant name.
		if s.sessions[hello.Tenant] == sess {
			delete(s.sessions, hello.Tenant)
		}
		s.met.setSessions(len(s.sessions))
		s.mu.Unlock()
	}()
	for {
		setConnDeadline(conn, 10*deadline)
		msg, err := codec.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("proto: session %s: %v", hello.Tenant, err)
			}
			return
		}
		sess.touch()
		switch msg.Type {
		case TypeHeartBeat:
			s.enqueue(sess, queuedMsg{typ: TypeHeartBeat, slot: msg.Slot})
		case TypeBid:
			if err := s.acceptBids(sess, msg); err != nil {
				s.enqueue(sess, queuedMsg{typ: TypeError, slot: msg.Slot, detail: err.Error()})
			}
		default:
			s.enqueue(sess, queuedMsg{typ: TypeError, detail: fmt.Sprintf("unexpected %q", msg.Type)})
		}
	}
}

// dropSession tears a session's transport down: the writer goroutine is
// told to exit, the connection is closed (unblocking both the reader loop
// and any in-flight write), and no further messages can be enqueued. It is
// idempotent and safe from any goroutine; the Section III-C contract is
// that the dropped tenant simply has no spot capacity until it reconnects.
func (s *Server) dropSession(sess *session) {
	sess.qmu.Lock()
	if sess.dropped {
		sess.qmu.Unlock()
		return
	}
	sess.dropped = true
	sess.qmu.Unlock()
	close(sess.quit)
	_ = sess.codec.Close()
}

// enqueue hands one outbound message to the session's writer. It never
// blocks: a full queue means the peer is not draining fast enough — the
// slow-consumer policy drops the whole session to the no-spot default
// rather than letting it stall the market loop.
func (s *Server) enqueue(sess *session, qm queuedMsg) bool {
	sess.qmu.Lock()
	if sess.dropped {
		sess.qmu.Unlock()
		s.recycle(qm.grants)
		return false
	}
	select {
	case sess.queue <- qm:
		sess.qmu.Unlock()
		s.met.queueDepth(+1)
		return true
	default:
		sess.qmu.Unlock()
		s.recycle(qm.grants)
		s.met.outboundDropped(dropQueueFull)
		if qm.typ == TypePrice || qm.typ == TypeBudgetReset {
			s.met.broadcast(false)
		}
		s.logf("proto: session %s outbound queue full, dropping slow consumer", sess.tenant)
		s.dropSession(sess)
		return false
	}
}

// writeLoop drains one session's outbound queue, applying the write
// deadline to every message. A failed or expired write drops the session;
// the reader loop then observes the closed connection and cleans up.
func (s *Server) writeLoop(sess *session) {
	for {
		select {
		case qm := <-sess.queue:
			s.met.queueDepth(-1)
			if err := s.writeOne(sess, qm); err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					s.met.sendDeadlineExpired()
				}
				if qm.typ == TypePrice || qm.typ == TypeBudgetReset {
					s.logf("proto: broadcast to %s failed: %v", sess.tenant, err)
				}
				s.met.outboundDropped(dropWriteError)
				s.dropSession(sess)
			}
		case <-sess.quit:
			// Final drain: release pooled buffers and settle the depth
			// gauge. enqueue cannot add more once dropped is set.
			for {
				select {
				case qm := <-sess.queue:
					s.met.queueDepth(-1)
					s.recycle(qm.grants)
				default:
					return
				}
			}
		}
	}
}

// writeOne encodes and sends one queued message, recycling its grant
// buffer and recording the broadcast outcome.
func (s *Server) writeOne(sess *session, qm queuedMsg) error {
	msg := Message{Type: qm.typ, Slot: qm.slot, Price: qm.price, Detail: qm.detail, Trace: qm.trace}
	if qm.typ != TypeError {
		msg.Tenant = sess.tenant
	}
	if qm.grants != nil {
		msg.Grants = *qm.grants
	}
	// The send span runs on the writer goroutine, possibly after the
	// slot's root span already ended; StartRemote follows the trace's
	// recorded sampling decision, so stragglers still land correctly.
	var sp *otrace.Span
	if s.opts.Tracer != nil && qm.parent.Valid() {
		sp = s.opts.Tracer.StartRemote("send", qm.slot, qm.parent)
		sp.SetStr("tenant", sess.tenant)
		sp.SetStr("type", string(qm.typ))
	}
	if sess.conn != nil {
		_ = sess.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	err := sess.codec.Send(msg)
	if err != nil {
		sp.SetStr("error", err.Error())
	}
	sp.End()
	s.recycle(qm.grants)
	if qm.typ == TypePrice || qm.typ == TypeBudgetReset {
		s.met.broadcast(err == nil)
		if err == nil {
			s.met.broadcastEncoded(sess.codec.Encoding())
		}
	}
	return err
}

// grantBuf fetches a pooled grant slice (length 0).
func (s *Server) grantBuf() *[]Grant {
	s.fmu.Lock()
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		s.fmu.Unlock()
		*p = (*p)[:0]
		return p
	}
	s.fmu.Unlock()
	return new([]Grant)
}

// recycle returns a grant buffer to the freelist (nil is a no-op).
func (s *Server) recycle(p *[]Grant) {
	if p == nil {
		return
	}
	s.fmu.Lock()
	s.free = append(s.free, p)
	s.fmu.Unlock()
}

// snapshotSessions refills the reusable broadcast session snapshot.
// Callers must hold bmu.
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	s.sessSnap = s.sessSnap[:0]
	for _, sess := range s.sessions {
		s.sessSnap = append(s.sessSnap, sess)
	}
	s.mu.Unlock()
	return s.sessSnap
}

// Broadcast sends the clearing price and each tenant's own grants for the
// slot. rackID maps market indices back to wire IDs. The send itself is
// asynchronous per session (bounded queue + writer goroutine), so the call
// costs one enqueue per session regardless of peer round-trip times.
// Tenants whose queue is full or whose connection fails are dropped (they
// fall back to no spot capacity).
func (s *Server) Broadcast(slot int, price float64, allocs []core.Allocation, rackID func(int) string) {
	s.BroadcastTraced(slot, price, allocs, rackID, nil)
}

// BroadcastTraced is Broadcast carrying the slot's trace: parent is the
// loop's broadcast span. Each price message is stamped with the slot
// trace's traceparent field (formatted once here) so tenants adopt the
// operator's trace, and each session's write gets a send span. A nil
// parent — or a server without a tracer — degrades to plain Broadcast.
func (s *Server) BroadcastTraced(slot int, price float64, allocs []core.Allocation, rackID func(int) string, parent *otrace.Span) {
	tp, ctx := s.traceFields(parent)
	s.bmu.Lock()
	defer s.bmu.Unlock()
	// Group grants by tenant into pooled buffers. Map entries persist
	// across slots holding nil between broadcasts, so the steady-state
	// grouping allocates nothing.
	for _, a := range allocs {
		p := s.perTenant[a.Tenant]
		if p == nil {
			p = s.grantBuf()
			s.perTenant[a.Tenant] = p
			s.bTenants = append(s.bTenants, a.Tenant)
		}
		*p = append(*p, Grant{Rack: rackID(a.Rack), Watts: a.Watts})
	}
	for _, sess := range s.snapshotSessions() {
		var gb *[]Grant
		if p := s.perTenant[sess.tenant]; p != nil {
			gb = p
			s.perTenant[sess.tenant] = nil
		}
		s.enqueue(sess, queuedMsg{typ: TypePrice, slot: slot, price: price, grants: gb, trace: tp, parent: ctx})
	}
	// Grants for tenants with no live session are released unsent.
	for _, t := range s.bTenants {
		if p := s.perTenant[t]; p != nil {
			s.recycle(p)
			s.perTenant[t] = nil
		}
	}
	s.bTenants = s.bTenants[:0]
}

// BroadcastBudgetResetTraced pushes emergency budget resets to the tenants
// that own the affected racks: each session receives one budget_reset
// message carrying only its own racks' new budgets (watts), routed through
// the rack registrations from its hello. Sessions owning none of the reset
// racks receive nothing; like price broadcasts the sends are asynchronous,
// and a failed session falls back to the operator-side rack PDU budget,
// which still enforces the cap. The sends are timed under the slot's
// broadcast span parent (nil for none; see BroadcastTraced).
func (s *Server) BroadcastBudgetResetTraced(slot int, budgets map[int]float64, parent *otrace.Span) {
	if len(budgets) == 0 {
		return
	}
	tp, ctx := s.traceFields(parent)
	s.bmu.Lock()
	defer s.bmu.Unlock()
	for _, sess := range s.snapshotSessions() {
		var gb *[]Grant
		// sess.racks is written only during the hello handshake, before the
		// session is published, so reading it here is race-free.
		for wireID, idx := range sess.racks {
			if watts, ok := budgets[idx]; ok {
				if gb == nil {
					gb = s.grantBuf()
				}
				*gb = append(*gb, Grant{Rack: wireID, Watts: watts})
			}
		}
		if gb == nil {
			continue
		}
		s.enqueue(sess, queuedMsg{typ: TypeBudgetReset, slot: slot, grants: gb, trace: tp, parent: ctx})
	}
}

// traceFields derives the queued-message trace fields from a broadcast
// span: the preformatted traceparent (one allocation per broadcast, not
// per session) and the parent context for send spans.
func (s *Server) traceFields(parent *otrace.Span) (string, otrace.SpanContext) {
	if s.opts.Tracer == nil || parent == nil {
		return "", otrace.SpanContext{}
	}
	ctx := parent.Context()
	return otrace.FormatTraceparent(ctx), ctx
}

func (s *Server) acceptBids(sess *session, msg Message) error {
	if msg.Slot < 0 {
		s.met.bidRejected(rejectSlot)
		return fmt.Errorf("bid for negative slot %d", msg.Slot)
	}
	converted := make([]core.Bid, 0, len(msg.Bids))
	seen := make(map[int]bool, len(msg.Bids))
	for _, rb := range msg.Bids {
		idx, ok := sess.racks[rb.Rack]
		if !ok {
			s.met.bidRejected(rejectRack)
			return fmt.Errorf("rack %q not registered for tenant %s", rb.Rack, sess.tenant)
		}
		// One demand function per rack per slot (Eqn. 5): a duplicate inside
		// one message is ambiguous, so the whole message is rejected rather
		// than silently keeping either copy.
		if seen[idx] {
			s.met.bidRejected(rejectInvalid)
			return fmt.Errorf("duplicate bid for rack %q in slot %d message", rb.Rack, msg.Slot)
		}
		seen[idx] = true
		lb := core.LinearBid{DMax: rb.DMax, DMin: rb.DMin, QMin: rb.QMin, QMax: rb.QMax}
		if err := lb.Validate(); err != nil {
			s.met.bidRejected(rejectInvalid)
			return err
		}
		converted = append(converted, core.Bid{Rack: idx, Tenant: sess.tenant, Fn: lb})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Window enforcement (once the market position is known): a stale bid
	// missed its market — the no-spot default applies — and a far-future
	// bid would sit in the bid map unpruned, an unbounded-growth vector.
	if s.haveTaken {
		// At-or-before the market position is stale: slot s.taken has already
		// been drained by TakeBids, so a late bid for it would sit in the bid
		// map until pruned — and a reconnecting tenant re-submitting for the
		// in-flight slot could otherwise double-enter the next drain.
		if msg.Slot <= s.taken {
			s.met.bidRejected(rejectStale)
			return fmt.Errorf("stale bid for slot %d (market is at slot %d; no spot capacity applies)", msg.Slot, s.taken)
		}
		if msg.Slot > s.taken+s.opts.BidWindow {
			s.met.bidRejected(rejectWindow)
			return fmt.Errorf("bid for slot %d outside window (accepting slots %d..%d)",
				msg.Slot, s.taken+1, s.taken+s.opts.BidWindow)
		}
	}
	slotBids := s.bids[msg.Slot]
	if slotBids == nil {
		slotBids = make(map[string][]core.Bid)
		s.bids[msg.Slot] = slotBids
	}
	// A re-submitted bid replaces the tenant's earlier one for the slot.
	slotBids[sess.tenant] = converted
	s.met.bidAccepted()
	return nil
}

// TakeBids drains and returns every bid submitted for the slot, drops any
// stale bids for earlier slots (they missed their market — the no-spot
// default applies), and prunes anything beyond the acceptance window (only
// possible if the window was reconfigured). It also advances the market
// position used to window future bids.
func (s *Server) TakeBids(slot int) []core.Bid {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveTaken || slot > s.taken {
		s.taken = slot
		s.haveTaken = true
	}
	var out []core.Bid
	for sl, byTenant := range s.bids {
		switch {
		case sl == slot:
			for _, bs := range byTenant {
				out = append(out, bs...)
			}
			delete(s.bids, sl)
		case sl < slot, sl > s.taken+s.opts.BidWindow:
			delete(s.bids, sl)
		}
	}
	// Canonical rack order, not map-iteration order: clearing, journaling,
	// and the durable slot commit all fold in bid order, so two runs that
	// collected the same bids must hand them to the market identically —
	// crash recovery's bit-identity depends on it. Rack indices are unique
	// across the drained set (one demand function per rack per slot).
	sort.Slice(out, func(i, j int) bool { return out[i].Rack < out[j].Rack })
	return out
}

// MarketPosition returns the most recent slot handed to TakeBids and
// whether any slot has been taken yet — the durable half of the bid
// acceptance window.
func (s *Server) MarketPosition() (slot int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taken, s.haveTaken
}

// RestoreMarketPosition moves the bid acceptance window to a recovered
// slot: bids at or before it are rejected as stale, so tenants reconnecting
// after an operator restart land in the correct slot instead of bidding
// into history. The position only moves forward.
func (s *Server) RestoreMarketPosition(slot int) {
	if slot < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveTaken || slot > s.taken {
		s.taken = slot
		s.haveTaken = true
	}
}

// BufferedBids returns how many bids are currently buffered for the slot
// without draining them or advancing the market position (an observability
// hook; callers that want the bids must still TakeBids exactly once).
func (s *Server) BufferedBids(slot int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, bs := range s.bids[slot] {
		n += len(bs)
	}
	return n
}

// Sessions returns the names of currently connected tenants, sorted — map
// iteration order must never leak into logs or tests.
func (s *Server) Sessions() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		out = append(out, name)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Close shuts the listener and all sessions down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	close(s.stop)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, sess := range sessions {
		s.dropSession(sess)
	}
	s.wg.Wait()
	return err
}
