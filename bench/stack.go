package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/wal"
)

// workload is one benchmark configuration. Everything here is a constant of
// the workload: nothing is read from the machine.
type workload struct {
	name  string
	racks int
	wire  proto.Encoding
	// prod switches on what a real operator runs: auditor, one registry on
	// core/operator/proto/wal, a schema-v2 journal file, a WAL committed
	// every slot with snapshots every 64, and the emergency responder on its
	// quiescent path. Off means every optional layer is nil.
	prod bool
	// warmup is the number of unmeasured slots each set-up runs, sized so a
	// set-up takes about a second: scratch buffers, intern tables and the
	// heap reach steady state here.
	warmup int
	// block is the number of consecutive slots the per-block metrics (tail
	// turnaround, CPU per slot) take one value from, a multiple of
	// blockSlots: one to three seconds of the workload, see blockMedian.
	block int
}

var workloads = []workload{
	{name: "paper15k-bare", racks: 15000, wire: proto.WireBinary, warmup: 84, block: 64},
	{name: "paper15k-prod", racks: 15000, wire: proto.WireBinary, prod: true, warmup: 34, block: 64},
	{name: "paper15k-json", racks: 15000, wire: proto.WireJSON, warmup: 24, block: 64},
	{name: "small1500-prod", racks: 1500, wire: proto.WireBinary, prod: true, warmup: 320, block: 512},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// opTimeout bounds each wait of one tenant-slot operation: bids
	// buffered, and price received.
	opTimeout = 5 * time.Second
	// verifyEvery is the cadence of the independent feasibility re-check
	// on measured slots (every warm-up slot is checked).
	verifyEvery = 64
	// snapshotEvery is the prod WAL snapshot cadence.
	snapshotEvery = 64
	slotLen       = time.Minute
)

// wireCounters counts the bytes on the tenant connections and turns "the
// server has nothing left to read" into an event, so the harness can wait
// for the bid window to fill without polling (a short time.Sleep rounds up
// to a millisecond on this kernel, several times the small market's ingest).
type wireCounters struct {
	// written counts tenant→operator bytes, added before the write is
	// issued; consumed counts what the server's reads returned. A server
	// read that starts with the two equal has processed everything sent.
	written  atomic.Int64
	consumed atomic.Int64
	// received counts operator→tenant bytes.
	received atomic.Int64
	idle     chan struct{}
}

type tenantConn struct {
	net.Conn
	w *wireCounters
}

func (c tenantConn) Write(p []byte) (int, error) {
	c.w.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

func (c tenantConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.received.Add(int64(n))
	return n, err
}

type operatorConn struct {
	net.Conn
	w *wireCounters
}

func (c operatorConn) Read(p []byte) (int, error) {
	if c.w.consumed.Load() == c.w.written.Load() {
		// A hint only: the waiter re-checks Server.BufferedBids.
		select {
		case c.w.idle <- struct{}{}:
		default:
		}
	}
	n, err := c.Conn.Read(p)
	c.w.consumed.Add(int64(n))
	return n, err
}

const (
	// journalHeadBytes is how much of the journal's start stays on disk for the
	// journal probes (eight 15,000-rack events are 18 MB); journalRingBytes is
	// the stretch behind it that later events overwrite in turn.
	journalHeadBytes = 24 << 20
	journalRingBytes = 40 << 20
)

// ringFile is the journal's file. A 15,000-rack event is 2.3 MB, so a run's
// journal reaches 1.5 GB of dirty page cache after some 20 s, the kernel
// starts writing it back, and from then on every slot of the run is 5–8 %
// slower (README, "Limits"): what the disk does with a growing file, which
// this benchmark does not measure. Journal.Append issues one Write per
// line, so a ring of whole lines behind an intact head costs the market the
// same encode, write call and copy per slot while the file stops growing.
type ringFile struct {
	f *os.File
	// off is where the next line goes; ring is where the ring starts, the
	// first line boundary past journalHeadBytes (0 until the head is full).
	off, ring int64
	written   int64
}

func (r *ringFile) Write(p []byte) (int, error) {
	if r.ring == 0 && r.off >= journalHeadBytes {
		r.ring = r.off
	}
	if r.ring > 0 && r.off+int64(len(p)) > r.ring+journalRingBytes {
		r.off = r.ring
	}
	n, err := r.f.WriteAt(p, r.off)
	r.off += int64(n)
	r.written += int64(n)
	return n, err
}

// slotOutcome is what the operator reported for one slot (MarketLoop.OnSlot).
type slotOutcome struct {
	cleared    bool
	infeasible bool
	price      float64
	total      float64
	bids       int
	grants     [tenantCount]int
	watts      [tenantCount]float64
}

// tenantResult is what one tenant saw for one slot.
type tenantResult struct {
	err                  error
	price                float64
	grants               int
	watts                float64
	submitStart, priceAt time.Time
	submitEnd            time.Time
}

// slotSample is the harness's record of one slot. t0–t3 follow ISSUE 14:
// first SubmitBids call, bid window full, last tenant holds its grants,
// RunSlots returned.
type slotSample struct {
	slot           int
	start, end     time.Time // first tenant released; results collected and checked
	t0, t1, t2, t3 time.Time
	lastSubmitEnd  time.Time
	submit         [tenantCount]time.Duration
	// failed counts this slot's failed tenant-slot operations (0–2), of
	// which rejected got an error reply and noPrice got no price in time.
	failed, rejected, noPrice int
}

// stack is one in-process networked market: topology → operator → server +
// market loop, with tenantCount proto.Client tenants over loopback TCP.
type stack struct {
	w   workload
	in  *inputs
	dir string

	topo    *power.Topology
	op      *operator.Operator
	srv     *proto.Server
	loop    *proto.MarketLoop
	clients []*proto.Client
	wire    *wireCounters

	// prod-only layers (nil otherwise)
	auditor     *core.Auditor
	reg         *metrics.Registry
	wlog        *wal.Log
	journal     *metrics.Journal
	journalFile *ringFile
	budgetSets  atomic.Int64

	slotCh  []chan int
	resCh   []chan tenantResult
	tenants sync.WaitGroup

	last slotOutcome
	next int
	// results holds (price, total watts) per slot index for the checksum.
	results [][2]float64
	// firstFailure describes the first failed operation, for the report.
	firstFailure string
}

func (s *stack) journalPath() string { return filepath.Join(s.dir, "journal.jsonl") }
func (s *stack) walDir() string      { return filepath.Join(s.dir, "wal") }

// newOperator builds the operator for a workload; recovery probes build a
// second one the same way.
func newOperator(w workload, topo *power.Topology, reg *metrics.Registry, aud *core.Auditor,
	tracer *otrace.Tracer, setBudget func(int, float64) error) (*operator.Operator, error) {
	cfg := operator.Config{
		Topology:      topo,
		MarketOptions: core.Options{Algorithm: core.AlgorithmAuto, Audit: aud},
		Tracer:        tracer,
	}
	if reg != nil {
		cfg.MarketOptions.Metrics = core.NewMarketMetrics(reg)
		cfg.Metrics = operator.NewMetrics(reg)
	}
	if w.prod {
		cfg.Emergency = &operator.ResponderConfig{SetBudget: setBudget}
	}
	return operator.New(cfg)
}

// buildStack assembles the market and connects the tenants. dir is the
// state directory (used by prod workloads only); tracer may be nil.
func buildStack(w workload, in *inputs, dir string, tracer *otrace.Tracer) (s *stack, err error) {
	s = &stack{w: w, in: in, dir: dir, wire: &wireCounters{idle: make(chan struct{}, 1)}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.topo, err = power.NewTopology(in.ups, in.pdus, in.racks); err != nil {
		return s, err
	}
	var protoMet *proto.Metrics
	if w.prod {
		s.reg = metrics.NewRegistry()
		s.auditor = &core.Auditor{}
		protoMet = proto.NewMetrics(s.reg)
	}
	s.op, err = newOperator(w, s.topo, s.reg, s.auditor, tracer, func(int, float64) error {
		s.budgetSets.Add(1)
		return nil
	})
	if err != nil {
		return s, err
	}
	s.srv, err = proto.NewServerOpts("127.0.0.1:0", s.topo.RackByID, proto.ServerOptions{
		OwnerOf:  func(i int) string { return s.topo.Racks[i].Tenant },
		WrapConn: func(c net.Conn) net.Conn { return operatorConn{c, s.wire} },
		Metrics:  protoMet,
		Tracer:   tracer,
	})
	if err != nil {
		return s, err
	}
	// The epoch lies far in the past, so RunSlots never sleeps: the harness
	// closes the bid window itself and calls RunSlots(slot, 1).
	clock, err := proto.NewSlotClock(time.Now().Add(-365*24*time.Hour), slotLen)
	if err != nil {
		return s, err
	}
	s.loop = &proto.MarketLoop{
		Server:   s.srv,
		Operator: s.op,
		Clock:    clock,
		Reading:  func(int) power.Reading { return in.reading },
		RackID:   func(i int) string { return s.topo.Racks[i].ID },
		Tracer:   tracer,
		OnSlot:   s.onSlot,
	}
	if w.prod {
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return s, err
		}
		s.wlog, _, err = wal.Open(wal.Options{
			Dir: s.walDir(), Policy: wal.SyncEverySlot, Metrics: wal.NewMetrics(s.reg),
		})
		if err != nil {
			return s, err
		}
		f, err := os.Create(s.journalPath())
		if err != nil {
			return s, err
		}
		s.journalFile = &ringFile{f: f}
		s.journal = metrics.NewJournal(s.journalFile)
		s.loop.Journal = s.journal
		s.loop.Durable = &proto.Durable{Log: s.wlog, SnapshotEvery: snapshotEvery}
		s.loop.CheckEmergencies = true
		s.loop.BreakerTolerance = 0.05
	}
	for t, name := range in.tenants {
		c, err := proto.DialOpts(s.srv.Addr(), name, in.rackIDs[t], proto.ClientOptions{
			Wire:    w.wire,
			Metrics: protoMet,
			Dialer: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, opTimeout)
				if err != nil {
					return nil, err
				}
				return tenantConn{c, s.wire}, nil
			},
		})
		if err != nil {
			return s, fmt.Errorf("dial %s: %w", name, err)
		}
		s.clients = append(s.clients, c)
		slots, res := make(chan int), make(chan tenantResult, 1)
		s.slotCh, s.resCh = append(s.slotCh, slots), append(s.resCh, res)
		s.tenants.Add(1)
		go func(t int) {
			defer s.tenants.Done()
			s.tenantLoop(t, c, slots, res)
		}(t)
	}
	return s, nil
}

// tenantLoop is one tenant: per slot it scales its bid set, submits it, and
// sits in AwaitPrice until its grants arrive.
func (s *stack) tenantLoop(t int, c *proto.Client, slots <-chan int, out chan<- tenantResult) {
	var bids []proto.RackBid
	for slot := range slots {
		var r tenantResult
		bids = s.in.scaleBids(bids, slot, t)
		r.submitStart = time.Now()
		r.err = c.SubmitBids(slot, bids)
		r.submitEnd = time.Now()
		if r.err == nil {
			var grants []proto.Grant
			r.price, grants, r.err = c.AwaitPrice(slot, opTimeout)
			r.priceAt = time.Now()
			r.grants = len(grants)
			for _, g := range grants {
				r.watts += g.Watts
			}
		}
		out <- r
	}
}

// onSlot records the operator's result for the slot in flight. It runs on
// the loop goroutine after the broadcast and the journal append, so the
// work here is outside turnaround; the feasibility re-check is kept to
// warm-up slots and every verifyEvery-th slot.
func (s *stack) onSlot(slot int, out operator.SlotOutcome, bids int) {
	o := &s.last
	o.cleared, o.bids = true, bids
	o.price, o.total = out.Result.Price, out.Result.TotalWatts
	perTenant := len(s.in.racks) / tenantCount
	for _, a := range out.Result.Allocations {
		// Same order as the broadcast groups grants in, so each tenant's
		// sum must match bit for bit.
		t := a.Rack / perTenant
		o.grants[t]++
		o.watts[t] += a.Watts
	}
	if slot < s.w.warmup || slot%verifyEvery == 0 {
		o.infeasible = s.op.VerifyFeasible(out.Result.Allocations) != nil
	}
}

// awaitBids blocks until n racks' bids for the slot are buffered at the
// server, woken by the server going idle on the wire.
func (s *stack) awaitBids(slot, n int) bool {
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	for s.srv.BufferedBids(slot) != n {
		select {
		case <-s.wire.idle:
		case <-timeout.C:
			return false
		}
	}
	return true
}

func (s *stack) fail(format string, args ...interface{}) {
	if s.firstFailure == "" {
		s.firstFailure = fmt.Sprintf(format, args...)
	}
}

// runSlot drives one slot of the closed loop — one slot in flight — and
// checks what the tenants received against what the operator decided.
func (s *stack) runSlot() slotSample {
	slot := s.next
	s.next++
	sm := slotSample{slot: slot, start: time.Now()}
	perTenant := len(s.in.racks) / tenantCount
	// The tenants bid one after the other: the next is released when the
	// server has buffered the previous one's bids. Released together, the
	// two sessions' decode runs on two Ps in some slots and back to back on
	// one P in the others, at the Go scheduler's whim (1.7 ms or 3.2 ms on
	// the bare 15k market, about half the slots each), and the median
	// ingest of a run jumps between the two.
	full := true
	for t, ch := range s.slotCh {
		ch <- slot
		full = s.awaitBids(slot, (t+1)*perTenant) && full
	}
	sm.t1 = time.Now()
	s.last = slotOutcome{}
	_, runErr := s.loop.RunSlots(slot, 1)
	sm.t3 = time.Now()
	o := s.last
	s.results = append(s.results, [2]float64{o.price, o.total})
	for t := range s.resCh {
		r := <-s.resCh[t]
		sm.submit[t] = r.submitEnd.Sub(r.submitStart)
		if t == 0 || r.submitStart.Before(sm.t0) {
			sm.t0 = r.submitStart
		}
		if r.submitEnd.After(sm.lastSubmitEnd) {
			sm.lastSubmitEnd = r.submitEnd
		}
		if r.priceAt.After(sm.t2) {
			sm.t2 = r.priceAt
		}
		var why string
		switch {
		case r.err != nil:
			why = r.err.Error()
			if errors.Is(r.err, proto.ErrNoPrice) {
				sm.noPrice++
			} else if errors.Is(r.err, proto.ErrProtocol) {
				sm.rejected++
			}
		case !full:
			why = "bid window never filled"
		case runErr != nil:
			why = runErr.Error()
		case !o.cleared:
			why = "slot degraded"
		case o.infeasible:
			why = "allocation infeasible"
		case o.bids != len(s.in.racks):
			why = fmt.Sprintf("operator drained %d bids", o.bids)
		case math.Float64bits(r.price) != math.Float64bits(o.price):
			why = fmt.Sprintf("tenant price %v, operator %v", r.price, o.price)
		case r.grants != perTenant || o.grants[t] != perTenant:
			why = fmt.Sprintf("%d grants received, %d sent, %d racks", r.grants, o.grants[t], perTenant)
		case math.Float64bits(r.watts) != math.Float64bits(o.watts[t]):
			why = fmt.Sprintf("tenant watts %v, operator %v", r.watts, o.watts[t])
		}
		if why != "" {
			sm.failed++
			s.fail("slot %d %s: %s", slot, s.in.tenants[t], why)
		}
	}
	if sm.t2.IsZero() {
		sm.t2 = sm.t3
	}
	sm.end = time.Now()
	return sm
}

// checksum folds the first n slots' (price, total watts) bit patterns into
// one FNV-1a value: equal between encodings and between runs of one seed.
func (s *stack) checksum(n int) uint64 {
	if n > len(s.results) {
		n = len(s.results)
	}
	h := fnv.New64a()
	var b [16]byte
	for _, r := range s.results[:n] {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(r[0]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r[1]))
		h.Write(b[:])
	}
	return h.Sum64()
}

// counter reads one registry value (0 without a registry).
func (s *stack) counter(name string, labels ...string) float64 {
	if s.reg == nil {
		return 0
	}
	v, _ := s.reg.Value(name, labels...)
	return v
}

// familySum adds up every labelled child of one registry family, so a
// reason label added to the program later is counted too.
func (s *stack) familySum(name string) float64 {
	if s.reg == nil {
		return 0
	}
	sum := 0.0
	for _, f := range s.reg.Snapshot() {
		if f.Name == name {
			for _, sample := range f.Samples {
				sum += sample.Value
			}
		}
	}
	return sum
}

// verify runs the end-of-run checks over the whole stack lifetime.
func (s *stack) verify() error {
	var errs []error
	if n := s.loop.SlotErrors(); n != 0 {
		errs = append(errs, fmt.Errorf("%d degraded slots", n))
	}
	if s.w.prod {
		if n := s.auditor.Violations(); n != 0 {
			errs = append(errs, fmt.Errorf("%d audit violations: %w", n, s.auditor.Err()))
		}
		if err := s.op.ReconcileAccounts(); err != nil {
			errs = append(errs, err)
		}
		if err := s.wlog.Err(); err != nil {
			errs = append(errs, err)
		}
		if err := s.journal.Err(); err != nil {
			errs = append(errs, err)
		}
		if n := s.journal.Events(); n != s.next {
			errs = append(errs, fmt.Errorf("journal holds %d events for %d slots", n, s.next))
		}
		if n := s.budgetSets.Load(); n != 0 {
			errs = append(errs, fmt.Errorf("%d budget resets on a quiescent market", n))
		}
		if n := s.familySum("spotdc_proto_bid_rejects_total") + s.familySum("spotdc_proto_outbound_drops_total"); n != 0 {
			errs = append(errs, fmt.Errorf("registry counts %v rejected bids or dropped sends", n))
		}
	}
	return errors.Join(errs...)
}

// close stops the tenants and shuts every layer down, keeping the state
// directory. It is safe on a partly built stack.
func (s *stack) close() error {
	for _, ch := range s.slotCh {
		close(ch)
	}
	s.tenants.Wait()
	s.slotCh = nil
	var errs []error
	for _, c := range s.clients {
		_ = c.Close() // the server may already have closed the session
	}
	s.clients = nil
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
		s.srv = nil
	}
	if s.wlog != nil {
		errs = append(errs, s.wlog.Close())
		s.wlog = nil
	}
	if s.journalFile != nil {
		errs = append(errs, s.journalFile.f.Close())
		s.journalFile = nil
	}
	return errors.Join(errs...)
}
