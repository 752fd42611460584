// Package plant assembles one operator lifetime of the networked market
// (Fig. 5, §III-C): the operator, one rack PDU per rack behind the
// emergency responder, the protocol server, the write-ahead log and the
// state it recovers, a slot clock that resumes where that state stopped,
// the slot journal, and the market loop that drives them. spotdc-operator
// and the networked harnesses in internal/sim build their market through
// Open, so each wiring decision is made here once.
package plant

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/rackpdu"
	"spotdc/internal/trace"
	"spotdc/internal/wal"
)

// referenceUtilization is the share of its guarantee each rack draws in the
// reference reading. No deployment here has a rack telemetry feed, and the
// operator references racks that bid at their full guarantee regardless
// (§III-C).
const referenceUtilization = 0.75

// Config describes one operator lifetime. Every instrumentation handle
// comes from Registry; the auditor, the rack PDUs, the responder's budget
// hook, the clock epoch and the journal mode are derived, not configured.
type Config struct {
	// Topology (required), MarketOptions, Pricing and Predict configure the
	// operator (see operator.Config).
	Topology      *power.Topology
	MarketOptions core.Options
	Pricing       operator.Pricing
	Predict       power.PredictOptions
	// OtherLoad is one trace per PDU of the non-participating load.
	OtherLoad []*trace.Power
	// SlotLen is the wall-clock slot length.
	SlotLen time.Duration

	// Registry and Tracer, if non-nil, instrument every layer.
	Registry *metrics.Registry
	Tracer   *otrace.Tracer
	// Audit attaches an inline conservation auditor, whose verdict Close
	// returns; OnViolation, if non-nil, sees each violation as it is found.
	Audit       bool
	OnViolation func(error)

	// Listen and the rest configure the protocol server (see
	// proto.ServerOptions). A hello claiming another tenant's rack is
	// always refused.
	Listen     string
	SessionTTL time.Duration
	BidWindow  int
	WrapConn   func(net.Conn) net.Conn
	Logf       func(format string, args ...interface{})

	// MaxConsecutiveFailures and BreakerCooldownSlots configure the loop's
	// circuit breaker (see proto.MarketLoop).
	MaxConsecutiveFailures int
	BreakerCooldownSlots   int

	// Emergency arms the responder (tuned by the embedded ResponderConfig),
	// one rack PDU per rack with budget-reset latency ResetDelay, and the
	// loop's excursion check at BreakerTolerance. SetBudget, if non-nil,
	// sees each reset before the rack PDU applies it, concurrently across
	// the racks of one plan.
	Emergency bool
	operator.ResponderConfig
	BreakerTolerance float64
	ResetDelay       time.Duration

	// The embedded wal.Options keep the operator's state under Dir (none
	// when empty), snapshotted every SnapshotEvery slots.
	wal.Options
	SnapshotEvery int

	// JournalPath, if non-empty, is the slot journal, fsynced every
	// JournalSyncEvery events (0: at Close only).
	JournalPath      string
	JournalSyncEvery int
}

// Plant is one operator lifetime, ready for Loop.RunSlots from
// Recovered.NextSlot. Callers may set the loop's hooks and wrap its
// Reading first.
type Plant struct {
	// Loop holds the operator, the server and the clock.
	Loop *proto.MarketLoop
	// Units are the rack PDUs when Emergency is armed.
	Units []*rackpdu.PDU
	// Metrics is the protocol handle set a harness shares with its clients
	// and fault injectors; nil without a Registry.
	Metrics *proto.Metrics
	// Recovered is what the state directory held (zero without one).
	Recovered proto.Recovered

	auditor     *core.Auditor
	log         *wal.Log
	journalFile *os.File
	otherLoad   []*trace.Power
	reading     power.Reading
}

// Open builds the lifetime in order: operator and rack PDUs, server, WAL
// and the state it recovers, a clock whose first live slot
// Recovered.NextSlot starts two slot lengths from now, journal. On error
// everything already opened is closed again.
func Open(cfg Config) (*Plant, error) {
	topo := cfg.Topology
	if topo == nil {
		return nil, errors.New("plant: nil topology")
	}
	if len(cfg.OtherLoad) != len(topo.PDUs) {
		return nil, fmt.Errorf("plant: %d other-load traces for %d PDUs", len(cfg.OtherLoad), len(topo.PDUs))
	}
	p := &Plant{otherLoad: cfg.OtherLoad, reading: power.Reading{
		RackWatts:     make([]float64, len(topo.Racks)),
		OtherPDUWatts: make([]float64, len(topo.PDUs)),
	}}
	for i, r := range topo.Racks {
		p.reading.RackWatts[i] = referenceUtilization * r.Guaranteed
	}
	opCfg := operator.Config{Topology: topo, Pricing: cfg.Pricing, Predict: cfg.Predict, Tracer: cfg.Tracer}
	var unitMet *rackpdu.Metrics
	if reg := cfg.Registry; reg != nil {
		cfg.MarketOptions.Metrics = core.NewMarketMetrics(reg)
		opCfg.Metrics = operator.NewMetrics(reg)
		p.Metrics = proto.NewMetrics(reg)
		if cfg.Emergency {
			unitMet = rackpdu.NewMetrics(reg)
		}
		if cfg.Dir != "" {
			cfg.Options.Metrics = wal.NewMetrics(reg)
		}
	}
	if cfg.Audit {
		p.auditor = &core.Auditor{OnViolation: cfg.OnViolation}
		cfg.MarketOptions.Audit = p.auditor
	}
	opCfg.MarketOptions = cfg.MarketOptions
	if cfg.Emergency {
		p.Units = make([]*rackpdu.PDU, len(topo.Racks))
		for i, r := range topo.Racks {
			var err error
			if p.Units[i], err = rackpdu.New(rackpdu.Config{
				ID:          r.ID,
				BudgetWatts: r.Guaranteed + r.SpotHeadroom,
				ResetDelay:  cfg.ResetDelay,
				Metrics:     unitMet,
			}); err != nil {
				return nil, err
			}
		}
		rc, observe := cfg.ResponderConfig, cfg.SetBudget
		rc.SetBudget = func(rack int, watts float64) error {
			if observe != nil {
				if err := observe(rack, watts); err != nil {
					return err
				}
			}
			return p.Units[rack].SetBudget(watts)
		}
		opCfg.Emergency = &rc
	}
	op, err := operator.New(opCfg)
	if err != nil {
		return nil, err
	}
	srv, err := proto.NewServerOpts(cfg.Listen, topo.RackByID, proto.ServerOptions{
		SessionTTL: cfg.SessionTTL,
		BidWindow:  cfg.BidWindow,
		OwnerOf:    func(i int) string { return topo.Racks[i].Tenant },
		WrapConn:   cfg.WrapConn,
		Metrics:    p.Metrics,
		Tracer:     cfg.Tracer,
		Logf:       cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	p.Loop = &proto.MarketLoop{
		Server:                 srv,
		Operator:               op,
		Reading:                p.referenceReading,
		RackID:                 func(i int) string { return topo.Racks[i].ID },
		MaxConsecutiveFailures: cfg.MaxConsecutiveFailures,
		BreakerCooldownSlots:   cfg.BreakerCooldownSlots,
		CheckEmergencies:       cfg.Emergency,
		BreakerTolerance:       cfg.BreakerTolerance,
		Tracer:                 cfg.Tracer,
	}
	if err := p.openState(cfg); err != nil {
		p.Kill()
		return nil, err
	}
	return p, nil
}

// openState opens what outlives the process: the WAL and the state it
// recovers, the clock that resumes there, and the journal.
func (p *Plant) openState(cfg Config) error {
	if cfg.Dir != "" {
		log, rec, err := wal.Open(cfg.Options)
		if err != nil {
			return err
		}
		p.log = log
		recovered, err := proto.RecoverDurable(rec, p.Loop.Operator, p.Loop.Server)
		if err != nil {
			return fmt.Errorf("state recovery: %w", err)
		}
		p.Recovered = *recovered
		p.Loop.Durable = &proto.Durable{Log: log, SnapshotEvery: cfg.SnapshotEvery}
	}
	// Numbering continues where the previous lifetime stopped, and the
	// first live slot leaves tenants two slot lengths to connect and bid.
	clock, err := proto.NewSlotClock(
		time.Now().Add(time.Duration(2-p.Recovered.NextSlot)*cfg.SlotLen), cfg.SlotLen)
	if err != nil {
		return err
	}
	p.Loop.Clock = clock
	if cfg.JournalPath == "" {
		return nil
	}
	// The journal by one rule: a lifetime that starts at slot 0 (no state,
	// or a fresh state directory) starts a fresh file; a resumed one appends
	// to its predecessors' file, with a header only if that is empty.
	mode := os.O_TRUNC
	if p.Recovered.NextSlot > 0 {
		mode = os.O_APPEND
	}
	f, err := os.OpenFile(cfg.JournalPath, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return err
	}
	p.journalFile = f
	st, err := f.Stat()
	if err != nil {
		return err
	}
	p.Loop.Journal = metrics.NewJournalOpts(f, metrics.JournalOptions{SyncEvery: cfg.JournalSyncEvery, Resumed: st.Size() > 0})
	return nil
}

// referenceReading is the loop's reading: each rack at referenceUtilization
// of its guarantee, capped at its rack PDU's budget when emergencies are
// armed (the physical enforcement of a reclaim plan), and each PDU's
// non-participating load from its trace. The slices are reused by the next
// call.
func (p *Plant) referenceReading(slot int) power.Reading {
	for m, tr := range p.otherLoad {
		p.reading.OtherPDUWatts[m] = tr.At(slot)
	}
	racks := p.Loop.Operator.Topology().Racks
	for i, u := range p.Units {
		p.reading.RackWatts[i] = min(referenceUtilization*racks[i].Guaranteed, u.Budget())
	}
	return p.reading
}

// Close ends the lifetime in order: the WAL (its final fsync; a sticky
// error never stopped the market and surfaces now), the journal's sync and
// close, the server, then with Audit the auditor's verdict and the reconciliation
// of the books. The errors come back separately, so a caller can log a
// degraded WAL or journal and still act on the audit.
func (p *Plant) Close() (walErr, journalErr, auditErr error) {
	if p.log != nil {
		walErr = p.log.Close()
	}
	if p.journalFile != nil {
		journalErr = p.Loop.Journal.Sync()
		if err := p.journalFile.Close(); journalErr == nil {
			journalErr = err
		}
	}
	p.Loop.Server.Close()
	if p.auditor != nil {
		if n := p.auditor.Violations(); n > 0 {
			auditErr = fmt.Errorf("audit recorded %d violation(s): %v", n, p.auditor.Err())
		} else {
			auditErr = p.Loop.Operator.ReconcileAccounts()
		}
	}
	return walErr, journalErr, auditErr
}

// Kill ends the lifetime as a crash does: the server goes away, the WAL's
// descriptors are yanked without flush or close, and the journal's file is
// closed unsynced (losing nothing already written). The rack PDUs are
// devices and keep their budgets.
func (p *Plant) Kill() {
	p.Loop.Server.Close()
	if p.log != nil {
		p.log.Kill()
	}
	if p.journalFile != nil {
		p.journalFile.Close()
	}
}
