package workload

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBatchQueueSubmitValidation(t *testing.T) {
	var q BatchQueue
	if _, err := q.Submit(0, 0); !errors.Is(err, ErrQueue) {
		t.Error("zero-unit job accepted")
	}
	if _, err := q.Submit(5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(3, 10); !errors.Is(err, ErrQueue) {
		t.Error("out-of-order arrival accepted")
	}
}

func TestBatchQueueDrainValidation(t *testing.T) {
	var q BatchQueue
	if _, err := q.Drain(0, -1, 60); !errors.Is(err, ErrQueue) {
		t.Error("negative throughput accepted")
	}
	if _, err := q.Drain(0, 1, 0); !errors.Is(err, ErrQueue) {
		t.Error("zero slot length accepted")
	}
}

func TestBatchQueueFIFOCompletion(t *testing.T) {
	var q BatchQueue
	// Two jobs of 120 units each arriving at slot 0; throughput 1 unit/s on
	// 60 s slots drains 60 units per slot.
	id0, err := q.Submit(0, 120)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := q.Submit(0, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.jobs) != 2 || backlog(&q, 0) != 240 {
		t.Fatalf("pending=%d backlog=%v", len(q.jobs), backlog(&q, 0))
	}
	var all []CompletedJob
	for slot := 0; slot < 4; slot++ {
		done, err := q.Drain(slot, 1, 60)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, done...)
	}
	if len(all) != 2 {
		t.Fatalf("completed %d jobs", len(all))
	}
	// Job 0 needs slots 0-1 (T=2); job 1 finishes at slot 3 (T=4).
	if all[0].ID != id0 || all[0].FinishSlot != 1 || all[0].CompletionSlots != 2 {
		t.Errorf("job0: %+v", all[0])
	}
	if all[1].ID != id1 || all[1].FinishSlot != 3 || all[1].CompletionSlots != 4 {
		t.Errorf("job1: %+v", all[1])
	}
	if len(q.jobs) != 0 {
		t.Errorf("pending = %d", len(q.jobs))
	}
	if math.Abs(q.MeanCompletionSlots()-3) > 1e-9 {
		t.Errorf("mean T_job = %v, want 3", q.MeanCompletionSlots())
	}
	if math.Abs(q.drainedUnits-240) > 1e-9 {
		t.Errorf("drained = %v", q.drainedUnits)
	}
}

func TestBatchQueueFutureArrivalsWait(t *testing.T) {
	var q BatchQueue
	if _, err := q.Submit(5, 30); err != nil {
		t.Fatal(err)
	}
	done, err := q.Drain(0, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Error("future job drained early")
	}
	if backlog(&q, 0) != 0 || backlog(&q, 5) != 30 {
		t.Errorf("backlog: %v / %v", backlog(&q, 0), backlog(&q, 5))
	}
	done, err = q.Drain(5, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].CompletionSlots != 1 {
		t.Errorf("done: %+v", done)
	}
}

// The headline behaviour spot capacity buys: faster draining cuts T_job by
// roughly the throughput ratio under sustained backlog.
func TestBatchQueueSpotSpeedup(t *testing.T) {
	m := WordCountModel()
	// Identical job sizes for both runs (sized to ~3 slots of capped work);
	// only the power budget differs.
	runFixed := func(watts float64) float64 {
		var q BatchQueue
		tp := m.Throughput(watts)
		units := m.Throughput(125) * 120 * 3
		for slot := 0; slot < 200; slot++ {
			if slot%4 == 0 {
				if _, err := q.Submit(slot, units); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := q.Drain(slot, tp, 120); err != nil {
				t.Fatal(err)
			}
		}
		return q.MeanCompletionSlots()
	}
	tCapped := runFixed(125)
	tSpot := runFixed(185)
	if tSpot >= tCapped {
		t.Fatalf("spot T_job %v not below capped %v", tSpot, tCapped)
	}
	ratio := tCapped / tSpot
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("T_job speedup %v implausible", ratio)
	}
}

// Property: work is conserved — drained + remaining backlog equals
// submitted for any drain schedule.
func TestQuickBatchQueueConservation(t *testing.T) {
	f := func(sizes []uint8, rates []uint8) bool {
		var q BatchQueue
		submitted := 0.0
		slot := 0
		for i, s := range sizes {
			u := float64(s%50) + 1
			if _, err := q.Submit(slot, u); err != nil {
				return false
			}
			submitted += u
			if i%2 == 1 {
				slot++
			}
		}
		for i, r := range rates {
			if _, err := q.Drain(slot+i, float64(r%20), 30); err != nil {
				return false
			}
		}
		final := backlog(&q, slot+len(rates)+10)
		return math.Abs(q.drainedUnits+final-submitted) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// backlog returns the total remaining work units of q's jobs that have
// arrived by the slot.
func backlog(q *BatchQueue, slot int) float64 {
	sum := 0.0
	for _, j := range q.jobs {
		if j.arrival <= slot {
			sum += j.remaining
		}
	}
	return sum
}
