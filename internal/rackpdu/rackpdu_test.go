package rackpdu

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func newPDU(t *testing.T, budget float64) *PDU {
	t.Helper()
	p, err := New(Config{ID: "rpdu-1", BudgetWatts: budget})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewDefaults(t *testing.T) {
	p, err := New(Config{ID: "x", BudgetWatts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.outletDraw) != numOutlets {
		t.Errorf("outlets = %d, want %d", len(p.outletDraw), numOutlets)
	}
	if p.id != "x" || p.Budget() != 100 {
		t.Error("config not applied")
	}
	if _, err := New(Config{BudgetWatts: -1}); !errors.Is(err, ErrBudget) {
		t.Error("negative budget accepted")
	}
}

func TestFeedAndRead(t *testing.T) {
	p := newPDU(t, 200)
	if err := p.Feed(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := p.Feed(1, 30); err != nil {
		t.Fatal(err)
	}
	if got := p.outletDraw[0]; got != 50 {
		t.Errorf("outlet 0 draws %v", got)
	}
	if got := p.ReadTotal(); got != 80 {
		t.Errorf("ReadTotal = %v", got)
	}
	if err := p.Feed(numOutlets, 1); !errors.Is(err, ErrOutlet) {
		t.Error("bad outlet accepted")
	}
	if err := p.Feed(-1, 1); !errors.Is(err, ErrOutlet) {
		t.Error("negative outlet accepted")
	}
	if err := p.Feed(0, -5); err == nil {
		t.Error("negative draw accepted")
	}
}

func TestSetBudgetAndResets(t *testing.T) {
	p := newPDU(t, 100)
	if err := p.SetBudget(175); err != nil {
		t.Fatal(err)
	}
	if p.Budget() != 175 {
		t.Errorf("budget = %v", p.Budget())
	}
	if err := p.SetBudget(-1); !errors.Is(err, ErrBudget) {
		t.Error("negative budget accepted")
	}
	if p.Resets() != 1 {
		t.Errorf("resets = %d, want 1", p.Resets())
	}
}

func TestResetRate(t *testing.T) {
	// The paper cites 20+ budget resets per second for this class of PDU;
	// with a 5 ms emulated firmware delay we comfortably exceed that.
	p, err := New(Config{ID: "x", BudgetWatts: 100, ResetDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 25
	for i := 0; i < n; i++ {
		if err := p.SetBudget(float64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Errorf("%d resets took %v; want ≥20 resets/s", n, elapsed)
	}
	if p.Resets() != n {
		t.Errorf("resets = %d", p.Resets())
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := newPDU(t, 500)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0:
					_ = p.SetBudget(float64(100 + i%50))
				case 1:
					_ = p.Feed(i%4, float64(i%100))
				case 2:
					p.Budget()
				case 3:
					p.ReadTotal()
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Resets() == 0 {
		t.Error("no resets recorded")
	}
}
