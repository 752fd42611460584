// Package rackpdu emulates the intelligent rack PDU the paper's testbed uses
// (APC AP8632) for the one capability SpotDC depends on: runtime resetting
// of the rack-level power budget, which commodity units sustain at 20+
// resets per second without timeouts. Per-outlet draw can be fed in and the
// rack total read back, for closed-loop tests of budget enforcement.
//
// The emulation is safe for concurrent use: the operator resets budgets
// from its market loop while a simulation feeds per-outlet draw.
package rackpdu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"spotdc/internal/metrics"
)

// Metrics is the rack-PDU emulation's pre-registered handle set, shared by
// every PDU of a run (counters aggregate across units). Build one with
// NewMetrics and hand it to Config.Metrics; nil disables instrumentation.
type Metrics struct {
	resets *metrics.Counter
}

// NewMetrics registers the rack-PDU families on r. Registration is
// idempotent per registry.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		resets: r.Counter("spotdc_rackpdu_budget_resets_total",
			"Rack power-budget resets applied (SpotDC issues one per rack per slot; the AP8632 sustains 20+/s)."),
	}
}

// ErrOutlet reports an out-of-range outlet index.
var ErrOutlet = errors.New("rackpdu: invalid outlet")

// ErrBudget reports an invalid budget value.
var ErrBudget = errors.New("rackpdu: invalid budget")

// numOutlets matches the AP8632's 24 outlets.
const numOutlets = 24

// PDU is one emulated intelligent rack PDU.
type PDU struct {
	mu sync.Mutex

	id         string
	outletDraw []float64
	budget     float64
	resetDelay time.Duration
	resets     int
	met        *Metrics
}

// Config parameterizes a PDU.
type Config struct {
	// ID names the unit in its errors.
	ID string
	// BudgetWatts is the initial rack power budget (guaranteed capacity).
	BudgetWatts float64
	// ResetDelay emulates the firmware latency of a budget reset; the
	// AP8632 sustains 20+ resets/s, i.e. < 50 ms. Zero means instantaneous
	// (useful in simulations).
	ResetDelay time.Duration
	// Metrics, if non-nil, counts budget resets on the shared rack-PDU
	// handle set.
	Metrics *Metrics
}

// New builds a PDU with every outlet drawing nothing.
func New(cfg Config) (*PDU, error) {
	if cfg.BudgetWatts < 0 {
		return nil, fmt.Errorf("%w: %s: %v W", ErrBudget, cfg.ID, cfg.BudgetWatts)
	}
	return &PDU{
		id:         cfg.ID,
		outletDraw: make([]float64, numOutlets),
		budget:     cfg.BudgetWatts,
		resetDelay: cfg.ResetDelay,
		met:        cfg.Metrics,
	}, nil
}

// SetBudget resets the rack-level power budget — the operation SpotDC
// issues every slot to deliver guaranteed + granted spot capacity.
func (p *PDU) SetBudget(watts float64) error {
	if watts < 0 {
		return fmt.Errorf("%w: %s: %v W", ErrBudget, p.id, watts)
	}
	if p.resetDelay > 0 {
		time.Sleep(p.resetDelay)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = watts
	p.resets++
	if p.met != nil {
		p.met.resets.Inc()
	}
	return nil
}

// Budget returns the current rack power budget.
func (p *PDU) Budget() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// Resets returns how many budget resets have been applied.
func (p *PDU) Resets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resets
}

// Feed sets the instantaneous draw of an outlet (the stand-in for a
// plugged server).
//
// testhook: the operator's closed-loop integration test meters its racks
func (p *PDU) Feed(outlet int, watts float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if outlet < 0 || outlet >= len(p.outletDraw) {
		return fmt.Errorf("%w: %s: %d of %d", ErrOutlet, p.id, outlet, len(p.outletDraw))
	}
	if watts < 0 {
		return fmt.Errorf("rackpdu: %s: negative draw %v", p.id, watts)
	}
	p.outletDraw[outlet] = watts
	return nil
}

// ReadTotal returns the rack's total metered draw.
//
// testhook: the operator's closed-loop integration test meters its racks
func (p *PDU) ReadTotal() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	sum := 0.0
	for _, d := range p.outletDraw {
		sum += d
	}
	return sum
}
