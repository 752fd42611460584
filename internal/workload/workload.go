// Package workload models the power-performance behaviour of the five
// benchmark workloads the SpotDC paper runs on its testbed (Section IV-B):
// CloudSuite Search and Web Serving (tail-latency sensitive, "sprinting"
// tenants), Hadoop WordCount and TeraSort, and PowerGraph graph analytics
// (throughput oriented, "opportunistic" tenants).
//
// The paper's physical servers are replaced by calibrated analytical
// models that reproduce the Fig. 8 power-performance relation:
//
//   - Latency workloads behave like a power-scaled queueing system. More
//     power raises the service rate; latency is the base service time plus
//     the queueing term and explodes as load approaches the rate the
//     current power budget can sustain.
//   - Throughput workloads deliver work at a concave, diminishing-returns
//     rate in power above idle.
//
// The package also implements Section IV-C's monetization: the linear +
// quadratic-beyond-SLO cost model for sprinting tenants and the linear
// completion-time cost model for opportunistic tenants, and builds the
// dollar-valued performance-gain curves of Fig. 9 consumed by bidding and
// by the MaxPerf baseline.
package workload

import (
	"fmt"
	"math"
)

// Class distinguishes the two tenant behaviours of the paper.
type Class int

const (
	// Sprinting tenants run delay-sensitive workloads (Search, Web) and use
	// spot capacity to avoid SLO violations.
	Sprinting Class = iota
	// Opportunistic tenants run delay-tolerant workloads (WordCount,
	// TeraSort, GraphAnalytics) and use spot capacity to speed up
	// processing.
	Opportunistic
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Sprinting:
		return "sprinting"
	case Opportunistic:
		return "opportunistic"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// LatencyModel captures a tail-latency-sensitive workload on one rack.
type LatencyModel struct {
	// Name labels the workload ("search", "web").
	Name string
	// IdleWatts and PeakWatts bound the rack's power draw.
	IdleWatts, PeakWatts float64
	// MaxRate is the sustainable request rate (req/s) at PeakWatts.
	MaxRate float64
	// BaseMS is the intrinsic per-request service latency in milliseconds
	// at negligible load.
	BaseMS float64
	// CapMS is the reported latency when the workload is saturated (the
	// load generator's timeout); keeps the model bounded past overload.
	CapMS float64
	// Exponent shapes the power→service-rate curve; 1 is linear, <1 gives
	// diminishing returns. Default 1.
	Exponent float64
}

func (m LatencyModel) exponent() float64 {
	if m.Exponent == 0 {
		return 1
	}
	return m.Exponent
}

// Rate returns the service rate (req/s) sustainable at the given power
// budget. Below idle power the rack cannot serve at all.
func (m LatencyModel) Rate(watts float64) float64 {
	if watts <= m.IdleWatts {
		return 0
	}
	frac := (watts - m.IdleWatts) / (m.PeakWatts - m.IdleWatts)
	if frac > 1 {
		frac = 1
	}
	return m.MaxRate * math.Pow(frac, m.exponent())
}

// LatencyMS returns the tail latency (ms) at request rate load (req/s)
// under the given power budget, clamped to CapMS when saturated.
func (m LatencyModel) LatencyMS(load, watts float64) float64 {
	if load <= 0 {
		return m.BaseMS
	}
	mu := m.Rate(watts)
	if mu <= load {
		return m.CapMS
	}
	l := m.BaseMS + 1000/(mu-load)
	if l > m.CapMS {
		return m.CapMS
	}
	return l
}

// PowerForLatency returns the minimum power budget that keeps latency at or
// below targetMS under the given load. ok is false when even PeakWatts
// cannot achieve the target (the returned power is then PeakWatts).
func (m LatencyModel) PowerForLatency(load, targetMS float64) (watts float64, ok bool) {
	if targetMS <= m.BaseMS {
		return m.PeakWatts, false
	}
	if load <= 0 {
		return m.IdleWatts, true
	}
	needMu := load + 1000/(targetMS-m.BaseMS)
	if needMu > m.MaxRate {
		return m.PeakWatts, false
	}
	frac := math.Pow(needMu/m.MaxRate, 1/m.exponent())
	return m.IdleWatts + frac*(m.PeakWatts-m.IdleWatts), true
}

// ThroughputModel captures a delay-tolerant batch workload on one rack.
type ThroughputModel struct {
	// Name labels the workload ("wordcount", "terasort", "graph").
	Name string
	// IdleWatts and PeakWatts bound the rack's power draw.
	IdleWatts, PeakWatts float64
	// MaxUnits is the processing rate (work units/s — MB/s for Hadoop,
	// knodes/s for graph analytics) at PeakWatts.
	MaxUnits float64
	// Exponent in (0,1] shapes the concave power→throughput curve.
	// Default 0.8.
	Exponent float64
}

func (m ThroughputModel) exponent() float64 {
	if m.Exponent == 0 {
		return 0.8
	}
	return m.Exponent
}

// Throughput returns the processing rate (units/s) at the given power
// budget.
func (m ThroughputModel) Throughput(watts float64) float64 {
	if watts <= m.IdleWatts {
		return 0
	}
	frac := (watts - m.IdleWatts) / (m.PeakWatts - m.IdleWatts)
	if frac > 1 {
		frac = 1
	}
	return m.MaxUnits * math.Pow(frac, m.exponent())
}

// SprintCost is the Section IV-C cost model for sprinting tenants:
// c = a·d below the SLO and c = a·d + b·(d − d_th)² above it, where d is
// the tail latency in ms.
type SprintCost struct {
	// A is the linear $/job/ms coefficient.
	A float64
	// B is the quadratic SLO-violation penalty coefficient ($/job/ms²).
	B float64
	// SLOms is d_th, 100 ms for every sprinting tenant in the paper.
	SLOms float64
}

// PerJob returns the equivalent monetary cost of one request served at the
// given tail latency.
func (c SprintCost) PerJob(latencyMS float64) float64 {
	cost := c.A * latencyMS
	if latencyMS > c.SLOms {
		over := latencyMS - c.SLOms
		cost += c.B * over * over
	}
	return cost
}

// RatePerHour converts the per-job cost into a $/h cost rate at the given
// request rate (req/s).
func (c SprintCost) RatePerHour(latencyMS, load float64) float64 {
	return c.PerJob(latencyMS) * load * 3600
}

// OppCost is the Section IV-C cost model for opportunistic tenants:
// c = ρ·T_job, i.e. a linear cost in job completion time, equivalently a
// dollar value ρ per unit of work throughput forgone.
type OppCost struct {
	// DollarPerUnit values one processed work unit.
	DollarPerUnit float64
}

// RatePerHour returns the value rate ($/h) of processing at the given
// throughput (units/s).
func (c OppCost) RatePerHour(unitsPerSec float64) float64 {
	return c.DollarPerUnit * unitsPerSec * 3600
}

// SprintGainCurve builds the Fig. 9 performance-gain curve for a sprinting
// rack: the $/h saved by adding spot watts on top of reservedWatts at the
// given load. The curve is non-decreasing (more power never hurts) and is
// suitable for core.MaxPerf.
func SprintGainCurve(m LatencyModel, c SprintCost, load, reservedWatts float64) func(spotWatts float64) float64 {
	base := c.RatePerHour(m.LatencyMS(load, reservedWatts), load)
	return func(spot float64) float64 {
		if spot < 0 {
			spot = 0
		}
		with := c.RatePerHour(m.LatencyMS(load, reservedWatts+spot), load)
		g := base - with
		if g < 0 {
			return 0
		}
		return g
	}
}

// OppGainCurve builds the performance-gain curve for an opportunistic rack:
// the extra $/h of work value unlocked by spot watts on top of
// reservedWatts.
func OppGainCurve(m ThroughputModel, c OppCost, reservedWatts float64) func(spotWatts float64) float64 {
	base := c.RatePerHour(m.Throughput(reservedWatts))
	return func(spot float64) float64 {
		if spot < 0 {
			spot = 0
		}
		g := c.RatePerHour(m.Throughput(reservedWatts+spot)) - base
		if g < 0 {
			return 0
		}
		return g
	}
}
