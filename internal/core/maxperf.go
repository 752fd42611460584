package core

import (
	"container/heap"
	"fmt"
)

// GainFunc maps spot capacity (watts) granted to a rack to the tenant's
// performance gain in $/h. MaxPerf assumes the function is concave and
// non-decreasing, which holds for the paper's power-performance models.
type GainFunc func(watts float64) float64

// MaxPerfRequest describes one rack's participation in the MaxPerf
// baseline, where the operator sees tenants' true gain curves (as if it
// owned the servers, like the power-routing work [9] the paper compares to).
type MaxPerfRequest struct {
	Rack int
	// MaxWatts caps how much spot capacity the rack can absorb.
	MaxWatts float64
	// Gain is the rack's performance-gain curve.
	Gain GainFunc
}

// MaxPerfOptions tunes the greedy water-filling.
type MaxPerfOptions struct {
	// QuantumWatts is the allocation granularity (default 1 W).
	QuantumWatts float64
}

type mpCandidate struct {
	idx      int     // index into requests
	quanta   int     // chunk size in quanta
	marginal float64 // average gain per watt over the chunk
}

type mpHeap []mpCandidate

func (h mpHeap) Len() int            { return len(h) }
func (h mpHeap) Less(i, j int) bool  { return h[i].marginal > h[j].marginal }
func (h mpHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mpHeap) Push(x interface{}) { *h = append(*h, x.(mpCandidate)) }
func (h *mpHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MaxPerf allocates spot capacity to maximize total performance gain
// subject to the same Eqn. (2)–(4) constraints, with no payments: the
// owner-operated-data-center baseline of Section V-B. It greedily
// water-fills the rack with the highest *average* marginal gain over the
// best-sized chunk of quanta — the concave-envelope variant of marginal
// greedy. The chunk lookahead matters because sprinting tenants' gain
// curves have a threshold shape: the first watts buy nothing until the
// service rate crosses the load, then the gain jumps.
func MaxPerf(cons Constraints, reqs []MaxPerfRequest, opts MaxPerfOptions) ([]Allocation, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	quantum := opts.QuantumWatts
	if quantum <= 0 {
		quantum = 1
	}
	for _, r := range reqs {
		if r.Rack < 0 || r.Rack >= len(cons.RackHeadroom) {
			return nil, fmt.Errorf("%w: request references rack %d of %d", ErrConstraints, r.Rack, len(cons.RackHeadroom))
		}
		if r.Gain == nil {
			return nil, fmt.Errorf("core: request for rack %d has nil gain function", r.Rack)
		}
		if r.MaxWatts < 0 {
			return nil, fmt.Errorf("core: request for rack %d has negative MaxWatts", r.Rack)
		}
	}

	allocated := make([]float64, len(reqs))
	pduUsed := make([]float64, len(cons.PDUSpot))
	upsUsed := 0.0

	limit := func(i int) float64 {
		r := reqs[i]
		lim := r.MaxWatts
		if hr := cons.RackHeadroom[r.Rack]; hr < lim {
			lim = hr
		}
		return lim
	}
	// bestChunk finds the chunk size (in quanta) with the highest average
	// gain per watt that still fits every constraint.
	bestChunk := func(i int) (mpCandidate, bool) {
		cur := allocated[i]
		rem := limit(i) - cur
		pdu := cons.RackPDU[reqs[i].Rack]
		if r := cons.PDUSpot[pdu] - pduUsed[pdu]; r < rem {
			rem = r
		}
		if r := cons.UPSSpot - upsUsed; r < rem {
			rem = r
		}
		maxK := int((rem + feasEps) / quantum)
		if maxK <= 0 {
			return mpCandidate{}, false
		}
		g0 := reqs[i].Gain(cur)
		best := mpCandidate{idx: i}
		for k := 1; k <= maxK; k++ {
			avg := (reqs[i].Gain(cur+float64(k)*quantum) - g0) / (float64(k) * quantum)
			if avg > best.marginal+feasEps {
				best.marginal = avg
				best.quanta = k
			}
		}
		return best, best.quanta > 0 && best.marginal > 0
	}

	h := &mpHeap{}
	for i := range reqs {
		if c, ok := bestChunk(i); ok {
			heap.Push(h, c)
		}
	}
	for h.Len() > 0 {
		top := heap.Pop(h).(mpCandidate)
		// Re-validate: constraints may have tightened since it was pushed.
		fresh, ok := bestChunk(top.idx)
		if !ok {
			continue
		}
		if fresh.marginal < top.marginal-feasEps {
			// Stale priority: re-queue with the fresh value. Averages only
			// ever shrink as capacity is consumed, so this terminates.
			heap.Push(h, fresh)
			continue
		}
		i := top.idx
		w := float64(fresh.quanta) * quantum
		allocated[i] += w
		pduUsed[cons.RackPDU[reqs[i].Rack]] += w
		upsUsed += w
		if c, ok := bestChunk(i); ok {
			heap.Push(h, c)
		}
	}

	out := make([]Allocation, len(reqs))
	for i, r := range reqs {
		out[i] = Allocation{Rack: r.Rack, Watts: allocated[i]}
	}
	return out, nil
}
