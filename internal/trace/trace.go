// Package trace synthesizes the workload and power traces the SpotDC paper
// evaluates on but does not publish: the three-month commercial colocation
// PDU power trace (Fig. 2(b), Fig. 7(a)), the Google-cluster request-arrival
// trace used for sprinting tenants, and the university batch-processing
// trace used for opportunistic tenants.
//
// Each generator is deterministic given its seed, and the power generator is
// calibrated so that slot-to-slot PDU-level variation stays within ±2.5% for
// 99% of one-minute slots, matching the statistic the paper reports from
// production data (Section III-C).
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ErrBadTrace reports a malformed serialized trace.
var ErrBadTrace = errors.New("trace: malformed trace data")

// Power is a sampled power (or load) time series with a fixed slot length.
type Power struct {
	// Name identifies the trace (e.g. "pdu1-others").
	Name string
	// SlotSeconds is the sampling interval.
	SlotSeconds int
	// Watts holds one sample per slot.
	Watts []float64
}

// Len returns the number of slots.
func (p *Power) Len() int { return len(p.Watts) }

// At returns the sample for slot i; out-of-range slots wrap around, so a
// short trace can drive an arbitrarily long simulation.
func (p *Power) At(i int) float64 {
	if len(p.Watts) == 0 {
		return 0
	}
	return p.Watts[((i%len(p.Watts))+len(p.Watts))%len(p.Watts)]
}

// PowerConfig parameterizes the bounded-variation AR(1) power generator.
type PowerConfig struct {
	// Name for the produced trace.
	Name string
	// Seed makes the trace reproducible.
	Seed int64
	// Slots is the number of samples.
	Slots int
	// SlotSeconds is the sampling interval (default 60).
	SlotSeconds int
	// MeanWatts is the long-run average power.
	MeanWatts float64
	// MinWatts / MaxWatts clamp the excursion. Max must be > Min.
	MinWatts, MaxWatts float64
	// Volatility is the per-slot relative noise magnitude; production PDUs
	// sit near 0.008 (≤ ±2.5%/min for 99% of slots), the deliberately
	// volatile synthetic trace in Fig. 10 uses ~0.1.
	Volatility float64
	// Diurnal, if nonzero, superimposes a day-night swing of the given
	// relative amplitude (e.g. 0.2 for ±20% of the mean).
	Diurnal float64
	// Persistence in (0,1) is the AR(1) coefficient; higher values drift
	// slower. Default 0.97.
	Persistence float64
}

// GeneratePower synthesizes a power trace.
func GeneratePower(cfg PowerConfig) (*Power, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("trace: Slots must be positive, got %d", cfg.Slots)
	}
	if cfg.MaxWatts <= cfg.MinWatts {
		return nil, fmt.Errorf("trace: MaxWatts (%v) must exceed MinWatts (%v)", cfg.MaxWatts, cfg.MinWatts)
	}
	if cfg.MeanWatts < cfg.MinWatts || cfg.MeanWatts > cfg.MaxWatts {
		return nil, fmt.Errorf("trace: MeanWatts %v outside [%v, %v]", cfg.MeanWatts, cfg.MinWatts, cfg.MaxWatts)
	}
	slotSec := cfg.SlotSeconds
	if slotSec <= 0 {
		slotSec = 60
	}
	persistence := cfg.Persistence
	if persistence == 0 {
		persistence = 0.97
	}
	if persistence <= 0 || persistence >= 1 {
		return nil, fmt.Errorf("trace: Persistence must be in (0,1), got %v", persistence)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Power{Name: cfg.Name, SlotSeconds: slotSec, Watts: make([]float64, cfg.Slots)}
	slotsPerDay := float64(24*3600) / float64(slotSec)
	// AR(1) around a (possibly diurnal) moving target.
	deviation := 0.0
	for i := 0; i < cfg.Slots; i++ {
		target := cfg.MeanWatts
		if cfg.Diurnal != 0 {
			phase := 2 * math.Pi * float64(i) / slotsPerDay
			// Peak in the "afternoon" (phase shifted), trough at night.
			target += cfg.MeanWatts * cfg.Diurnal * math.Sin(phase-math.Pi/2)
		}
		deviation = persistence*deviation + rng.NormFloat64()*cfg.Volatility*cfg.MeanWatts
		w := target + deviation
		if w < cfg.MinWatts {
			w = cfg.MinWatts
			deviation = w - target
		}
		if w > cfg.MaxWatts {
			w = cfg.MaxWatts
			deviation = w - target
		}
		out.Watts[i] = w
	}
	return out, nil
}

// ArrivalConfig parameterizes the request-arrival generator that stands in
// for the Google cluster trace used by sprinting tenants: a diurnal base
// rate with bursty high-traffic episodes during which the tenant needs spot
// capacity.
type ArrivalConfig struct {
	Name string
	Seed int64
	// Slots is the number of samples.
	Slots int
	// SlotSeconds is the sampling interval (default 120).
	SlotSeconds int
	// BaseRate is the off-peak request rate (requests/s).
	BaseRate float64
	// PeakRate is the top of the diurnal swing.
	PeakRate float64
	// BurstFraction is the fraction of slots hit by an extra burst on top of
	// the diurnal curve; the paper has sprinting tenants needing spot
	// capacity ~15% of the time.
	BurstFraction float64
	// BurstFactor multiplies the rate during a burst (default 1.5).
	BurstFactor float64
	// PhaseOffset shifts the diurnal curve in radians; π starts the trace
	// at the daily peak (useful for short demonstration windows).
	PhaseOffset float64
}

// GenerateArrivals synthesizes a request-rate trace (requests/s per slot).
func GenerateArrivals(cfg ArrivalConfig) (*Power, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("trace: Slots must be positive, got %d", cfg.Slots)
	}
	if cfg.PeakRate < cfg.BaseRate {
		return nil, fmt.Errorf("trace: PeakRate %v below BaseRate %v", cfg.PeakRate, cfg.BaseRate)
	}
	if cfg.BurstFraction < 0 || cfg.BurstFraction > 1 {
		return nil, fmt.Errorf("trace: BurstFraction %v outside [0,1]", cfg.BurstFraction)
	}
	slotSec := cfg.SlotSeconds
	if slotSec <= 0 {
		slotSec = 120
	}
	burstFactor := cfg.BurstFactor
	if burstFactor == 0 {
		burstFactor = 1.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Power{Name: cfg.Name, SlotSeconds: slotSec, Watts: make([]float64, cfg.Slots)}
	slotsPerDay := float64(24*3600) / float64(slotSec)
	mid := (cfg.BaseRate + cfg.PeakRate) / 2
	amp := (cfg.PeakRate - cfg.BaseRate) / 2
	// Bursts arrive in episodes of geometric length so high-traffic periods
	// are contiguous, as in real front-end traffic.
	inBurst := false
	for i := 0; i < cfg.Slots; i++ {
		phase := 2*math.Pi*float64(i)/slotsPerDay + cfg.PhaseOffset
		rate := mid + amp*math.Sin(phase-math.Pi/2)
		if inBurst {
			// Episodes end with probability 1/4 per slot (mean length 4).
			if rng.Float64() < 0.25 {
				inBurst = false
			}
		} else if cfg.BurstFraction > 0 {
			// Start probability chosen so the stationary burst fraction
			// matches cfg.BurstFraction given mean episode length 4.
			start := cfg.BurstFraction / (4 * (1 - cfg.BurstFraction))
			if rng.Float64() < start {
				inBurst = true
			}
		}
		if inBurst {
			rate *= burstFactor
		}
		rate *= 1 + 0.05*rng.NormFloat64()
		if rate < 0 {
			rate = 0
		}
		out.Watts[i] = rate
	}
	return out, nil
}

// BacklogConfig parameterizes the batch-processing backlog generator that
// stands in for the university data-center trace driving opportunistic
// tenants: job batches arrive and the tenant wants spot capacity whenever a
// backlog is pending (about 30% of slots in the paper's setup).
type BacklogConfig struct {
	Name string
	Seed int64
	// Slots is the number of samples.
	Slots int
	// SlotSeconds is the sampling interval (default 120).
	SlotSeconds int
	// ActiveFraction is the fraction of slots with pending backlog.
	ActiveFraction float64
	// MeanUnits is the mean backlog size (arbitrary work units) when active.
	MeanUnits float64
}

// GenerateBacklog synthesizes a backlog trace; a zero sample means the
// tenant has no pending batch work that slot.
func GenerateBacklog(cfg BacklogConfig) (*Power, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("trace: Slots must be positive, got %d", cfg.Slots)
	}
	if cfg.ActiveFraction < 0 || cfg.ActiveFraction > 1 {
		return nil, fmt.Errorf("trace: ActiveFraction %v outside [0,1]", cfg.ActiveFraction)
	}
	slotSec := cfg.SlotSeconds
	if slotSec <= 0 {
		slotSec = 120
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Power{Name: cfg.Name, SlotSeconds: slotSec, Watts: make([]float64, cfg.Slots)}
	active := false
	for i := 0; i < cfg.Slots; i++ {
		if active {
			if rng.Float64() < 0.2 { // mean active episode: 5 slots
				active = false
			}
		} else if cfg.ActiveFraction > 0 {
			start := cfg.ActiveFraction / (5 * (1 - cfg.ActiveFraction))
			if rng.Float64() < start {
				active = true
			}
		}
		if active {
			out.Watts[i] = cfg.MeanUnits * (0.5 + rng.Float64())
		}
	}
	return out, nil
}

// WriteCSV serializes the trace as "slot,value" rows preceded by a header
// carrying the name and slot length.
func (p *Power) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name=%s slot_seconds=%d\n", p.Name, p.SlotSeconds); err != nil {
		return err
	}
	for i, v := range p.Watts {
		if _, err := fmt.Fprintf(bw, "%d,%.6f\n", i, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace previously produced by WriteCSV.
func ReadCSV(r io.Reader) (*Power, error) {
	sc := bufio.NewScanner(r)
	out := &Power{SlotSeconds: 60}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, field := range strings.Fields(strings.TrimPrefix(line, "#")) {
				k, v, ok := strings.Cut(field, "=")
				if !ok {
					continue
				}
				switch k {
				case "name":
					out.Name = v
				case "slot_seconds":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("%w: line %d: bad slot_seconds %q", ErrBadTrace, lineNo, v)
					}
					out.SlotSeconds = n
				}
			}
			continue
		}
		_, valStr, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadTrace, lineNo, line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineNo, err)
		}
		out.Watts = append(out.Watts, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
