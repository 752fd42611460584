package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// benchSizedOptions shrinks every horizon so the full suite runs in seconds
// while still exercising the same fan-out code paths as the real runs.
func benchSizedOptions() Options {
	return Options{
		Seed:          42,
		LongSlots:     1200,
		ScaleTenants:  []int{8, 50},
		ScaleSlots:    60,
		ClearingRacks: []int{1500},
	}
}

// TestFanOutDeterminism is the reproducibility contract of the scenario
// fan-out: for the same seed, every report must be cell-for-cell identical
// whether its scenarios run serially (Workers=1) or concurrently
// (Workers=4). fig7b is excluded because its rows record wall-clock
// clearing times.
func TestFanOutDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	serialOpt := benchSizedOptions()
	serialOpt.Workers = 1
	parOpt := benchSizedOptions()
	parOpt.Workers = 4

	reports, err := RunAll(parOpt)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(reports) != len(ids) {
		t.Fatalf("RunAll returned %d reports for %d ids", len(reports), len(ids))
	}
	for i, rep := range reports {
		if rep.ID != ids[i] {
			t.Fatalf("RunAll order: report %d is %q, want %q", i, rep.ID, ids[i])
		}
	}
	for _, rep := range reports {
		if rep.ID == "fig7b" {
			continue // rows are wall-clock timings
		}
		serial, err := Run(rep.ID, serialOpt)
		if err != nil {
			t.Fatalf("%s: %v", rep.ID, err)
		}
		if !reflect.DeepEqual(serial.Rows, rep.Rows) {
			t.Errorf("%s: rows differ between Workers=1 and Workers=4", rep.ID)
			for r := range serial.Rows {
				if r < len(rep.Rows) && !reflect.DeepEqual(serial.Rows[r], rep.Rows[r]) {
					t.Errorf("%s: first diverging row %d:\n  serial:   %v\n  parallel: %v",
						rep.ID, r, serial.Rows[r], rep.Rows[r])
					break
				}
			}
		}
		if !reflect.DeepEqual(serial.Notes, rep.Notes) {
			t.Errorf("%s: notes differ between Workers=1 and Workers=4:\n  serial:   %v\n  parallel: %v",
				rep.ID, serial.Notes, rep.Notes)
		}
	}
}
