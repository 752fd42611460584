package workload

import (
	"errors"
	"fmt"
)

// ErrQueue reports invalid batch-queue input.
var ErrQueue = errors.New("workload: invalid batch queue input")

// BatchQueue tracks a delay-tolerant tenant's pending work at job
// granularity so job completion time — the T_job of the paper's
// opportunistic cost model c = ρ·T_job — can be measured directly rather
// than inferred from throughput. Jobs drain in FIFO order at whatever
// processing rate the current power budget sustains.
type BatchQueue struct {
	jobs     []batchJob
	nextID   int
	finished []CompletedJob
	// drainedUnits accumulates total processed work.
	drainedUnits float64
}

type batchJob struct {
	id        int
	arrival   int // slot index
	remaining float64
	size      float64
}

// CompletedJob records one finished batch job.
type CompletedJob struct {
	// ID is the submission order (0-based).
	ID int
	// ArrivalSlot and FinishSlot bound the job's time in system.
	ArrivalSlot, FinishSlot int
	// Units is the job's total work.
	Units float64
	// CompletionSlots is FinishSlot − ArrivalSlot + 1: the paper's T_job in
	// slot units.
	CompletionSlots int
}

// Submit enqueues a job of the given work units arriving at the slot.
func (q *BatchQueue) Submit(arrivalSlot int, units float64) (int, error) {
	if units <= 0 {
		return 0, fmt.Errorf("%w: job of %v units", ErrQueue, units)
	}
	if n := len(q.jobs); n > 0 && q.jobs[n-1].arrival > arrivalSlot {
		return 0, fmt.Errorf("%w: arrival slot %d before queued job at %d", ErrQueue, arrivalSlot, q.jobs[n-1].arrival)
	}
	id := q.nextID
	q.nextID++
	q.jobs = append(q.jobs, batchJob{id: id, arrival: arrivalSlot, remaining: units, size: units})
	return id, nil
}

// Drain processes the queue for one slot at the given throughput
// (units/s) and slot length, returning the jobs finished during the slot.
func (q *BatchQueue) Drain(slot int, unitsPerSec float64, slotSeconds int) ([]CompletedJob, error) {
	if unitsPerSec < 0 {
		return nil, fmt.Errorf("%w: negative throughput", ErrQueue)
	}
	if slotSeconds <= 0 {
		return nil, fmt.Errorf("%w: slot length %d", ErrQueue, slotSeconds)
	}
	budget := unitsPerSec * float64(slotSeconds)
	var done []CompletedJob
	for len(q.jobs) > 0 && budget > 0 {
		j := &q.jobs[0]
		if j.arrival > slot {
			break // not yet arrived
		}
		if j.remaining > budget {
			j.remaining -= budget
			q.drainedUnits += budget
			budget = 0
			break
		}
		budget -= j.remaining
		q.drainedUnits += j.remaining
		cj := CompletedJob{
			ID: j.id, ArrivalSlot: j.arrival, FinishSlot: slot,
			Units: j.size, CompletionSlots: slot - j.arrival + 1,
		}
		done = append(done, cj)
		q.finished = append(q.finished, cj)
		q.jobs = q.jobs[1:]
	}
	return done, nil
}

// Completed returns every finished job in completion order.
func (q *BatchQueue) Completed() []CompletedJob {
	return append([]CompletedJob(nil), q.finished...)
}

// MeanCompletionSlots returns the average T_job over finished jobs (0 when
// none finished).
func (q *BatchQueue) MeanCompletionSlots() float64 {
	if len(q.finished) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range q.finished {
		sum += float64(j.CompletionSlots)
	}
	return sum / float64(len(q.finished))
}
