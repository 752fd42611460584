package operator

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/power"
)

func pduEmergency(load float64) power.Emergency {
	return power.Emergency{Level: "PDU", ID: "PDU#1", Load: load, Capacity: 715, PDU: 0}
}

func TestPlanReclaimProportionalToGrants(t *testing.T) {
	topo := testTopo(t)
	// Racks 0 (145 W guaranteed) and 1 (125 W) both drawing above their
	// guarantee; grants 60/40 set the proportional cut weights.
	rackWatts := []float64{220, 180, 130, 110}
	grants := []float64{60, 40, 0, 0}
	plan := PlanReclaim(topo, pduEmergency(795), rackWatts, grants, 0.5)
	// excess = 80 < totalAbove = 75+55 = 130: pure proportional waterfill.
	if len(plan.Targets) != 2 {
		t.Fatalf("targets = %+v, want 2", plan.Targets)
	}
	want := []ReclaimTarget{
		{Rack: 0, BudgetWatts: 172, SpotCut: 48},
		{Rack: 1, BudgetWatts: 148, SpotCut: 32},
	}
	for i, w := range want {
		g := plan.Targets[i]
		if g.Rack != w.Rack || math.Abs(g.BudgetWatts-w.BudgetWatts) > 1e-9 ||
			math.Abs(g.SpotCut-w.SpotCut) > 1e-9 || g.GuaranteedCut != 0 {
			t.Errorf("target %d = %+v, want %+v", i, g, w)
		}
	}
	if math.Abs(plan.SpotReclaimed-80) > 1e-9 || plan.GuaranteedReclaimed != 0 || plan.Escalated {
		t.Errorf("plan totals %+v", plan)
	}
}

func TestPlanReclaimCapAndRedistribute(t *testing.T) {
	topo := testTopo(t)
	// Rack 0 has 30 W above guarantee but 80% of the grant weight: its
	// proportional share caps out and the rest flows to rack 1.
	rackWatts := []float64{175, 215, 130, 110}
	grants := []float64{80, 20, 0, 0}
	plan := PlanReclaim(topo, pduEmergency(815), rackWatts, grants, 0.5)
	if len(plan.Targets) != 2 {
		t.Fatalf("targets = %+v", plan.Targets)
	}
	if math.Abs(plan.Targets[0].SpotCut-30) > 1e-9 {
		t.Errorf("rack 0 cut %v, want its full 30 W above guarantee", plan.Targets[0].SpotCut)
	}
	if math.Abs(plan.Targets[1].SpotCut-70) > 1e-9 {
		t.Errorf("rack 1 cut %v, want the redistributed 70 W", plan.Targets[1].SpotCut)
	}
	if plan.Escalated || plan.GuaranteedReclaimed != 0 {
		t.Errorf("plan escalated: %+v", plan)
	}
}

func TestPlanReclaimEscalation(t *testing.T) {
	topo := testTopo(t)
	// Spot draw above guarantee totals 50 W but the excess is 185 W: spot
	// cuts cannot cover it. Below the severity threshold guaranteed capacity
	// stays untouchable; above it the shortfall is curtailed pro-rata.
	rackWatts := []float64{175, 145, 130, 110}
	grants := []float64{30, 20, 0, 0}
	em := pduEmergency(900) // overload fraction ≈ 0.259

	mild := PlanReclaim(topo, em, rackWatts, grants, 0.5)
	if mild.Escalated || mild.GuaranteedReclaimed != 0 {
		t.Errorf("severity 0.5 escalated: %+v", mild)
	}
	if math.Abs(mild.SpotReclaimed-50) > 1e-9 {
		t.Errorf("severity 0.5 spot reclaimed %v, want all 50 W above guarantee", mild.SpotReclaimed)
	}

	severe := PlanReclaim(topo, em, rackWatts, grants, 0.2)
	if !severe.Escalated {
		t.Fatalf("severity 0.2 did not escalate: %+v", severe)
	}
	if math.Abs(severe.SpotReclaimed-50) > 1e-9 {
		t.Errorf("escalated spot reclaimed %v, want 50", severe.SpotReclaimed)
	}
	if math.Abs(severe.GuaranteedReclaimed-135) > 1e-9 {
		t.Errorf("guaranteed reclaimed %v, want the 135 W shortfall", severe.GuaranteedReclaimed)
	}
	// Pro-rata to guaranteed capacity: 145:125 over the racks of PDU#1.
	wantG0 := 135 * 145.0 / 270
	for _, tg := range severe.Targets {
		if tg.BudgetWatts < 0 {
			t.Errorf("negative budget: %+v", tg)
		}
		if tg.Rack == 0 && math.Abs(tg.GuaranteedCut-wantG0) > 1e-9 {
			t.Errorf("rack 0 guaranteed cut %v, want %v", tg.GuaranteedCut, wantG0)
		}
	}
}

func TestPlanReclaimUPSCoversAllRacks(t *testing.T) {
	topo := testTopo(t)
	rackWatts := []float64{180, 160, 180, 160}
	grants := []float64{25, 25, 25, 25}
	em := power.Emergency{Level: "UPS", ID: "UPS", Load: 1450, Capacity: 1370, PDU: -1}
	plan := PlanReclaim(topo, em, rackWatts, grants, 0.5)
	if len(plan.Targets) != 4 {
		t.Fatalf("UPS plan targets = %+v, want all four racks", plan.Targets)
	}
	if math.Abs(plan.SpotReclaimed-80) > 1e-9 || plan.GuaranteedReclaimed != 0 {
		t.Errorf("UPS plan totals %+v", plan)
	}
	if !sort.SliceIsSorted(plan.Targets, func(i, j int) bool { return plan.Targets[i].Rack < plan.Targets[j].Rack }) {
		t.Errorf("targets not in ascending rack order: %+v", plan.Targets)
	}
}

func TestPlanReclaimDeterministic(t *testing.T) {
	topo := testTopo(t)
	rackWatts := []float64{213.7, 181.3, 130, 110}
	grants := []float64{37.21, 42.9, 0, 0}
	a := PlanReclaim(topo, pduEmergency(801.77), rackWatts, grants, 0.3)
	b := PlanReclaim(topo, pduEmergency(801.77), rackWatts, grants, 0.3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical inputs produced different plans:\n%+v\n%+v", a, b)
	}
}

// newEmergencyOp builds an operator with the responder enabled and a
// recording SetBudget hook.
func newEmergencyOp(t *testing.T, recoverySlots int) (*Operator, *budgetLog) {
	t.Helper()
	log := &budgetLog{set: map[int]float64{}}
	op, err := New(Config{
		Topology:      testTopo(t),
		MarketOptions: core.Options{PriceStep: 0.001},
		Emergency: &ResponderConfig{
			RecoverySlots: recoverySlots,
			SetBudget:     log.apply,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return op, log
}

type budgetLog struct {
	mu  sync.Mutex
	set map[int]float64
	n   int
}

func (l *budgetLog) apply(rack int, watts float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.set[rack] = watts
	l.n++
	return nil
}

func TestResponderReclaimSuspendRestore(t *testing.T) {
	op, log := newEmergencyOp(t, 2)
	overloaded := power.Reading{
		RackWatts:     []float64{220, 180, 130, 110},
		OtherPDUWatts: []float64{395, 180}, // PDU#1 load 795 > 750.75
	}
	healthy := power.Reading{
		RackWatts:     []float64{140, 120, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}

	if ems := op.ObserveEmergencies(overloaded, 0.05); len(ems) != 1 {
		t.Fatalf("emergencies = %+v, want PDU#1 only", ems)
	}
	if got := op.EmergenciesActed(); got != 1 {
		t.Fatalf("EmergenciesActed = %d", got)
	}
	plans := op.LastReclaims()
	if len(plans) != 1 || len(plans[0].Targets) != 2 {
		t.Fatalf("LastReclaims = %+v", plans)
	}
	if op.GuaranteedCutWatts() != 0 || op.InvoluntaryCuts() != 0 {
		t.Errorf("guaranteed capacity touched: %v W, %d cuts", op.GuaranteedCutWatts(), op.InvoluntaryCuts())
	}
	log.mu.Lock()
	if len(log.set) != 2 || log.n != 2 {
		t.Errorf("hook applied %d resets to %v", log.n, log.set)
	}
	log.mu.Unlock()

	// A suspended PDU sells no spot capacity while the emergency stands.
	out, err := op.RunSlot(nil, healthy, 2.0/60)
	if err != nil {
		t.Fatal(err)
	}
	if out.Spot.PDUWatts[0] != 0 {
		t.Errorf("suspended PDU#1 offered %v W of spot", out.Spot.PDUWatts[0])
	}
	if out.Spot.PDUWatts[1] == 0 {
		t.Errorf("healthy PDU#2 offered no spot")
	}
	pdus, ups := op.AppliedSuspensions()
	if len(pdus) != 1 || pdus[0] != 0 || ups {
		t.Errorf("AppliedSuspensions = %v, %v", pdus, ups)
	}

	// Recovery: after RecoverySlots consecutive healthy readings the element
	// restores every rack to guaranteed + headroom and spot sales resume.
	if op.ObserveEmergencies(healthy, 0.05); len(op.LastRestores()) != 0 {
		t.Fatalf("restored after one calm slot")
	}
	op.ObserveEmergencies(healthy, 0.05)
	restores := op.LastRestores()
	if len(restores) != 1 || restores[0].PDU != 0 || len(restores[0].Targets) != 2 {
		t.Fatalf("LastRestores = %+v", restores)
	}
	log.mu.Lock()
	if w := log.set[0]; w != 145+60 {
		t.Errorf("rack 0 restored to %v, want guaranteed+headroom 205", w)
	}
	log.mu.Unlock()
	out, err = op.RunSlot(nil, healthy, 2.0/60)
	if err != nil {
		t.Fatal(err)
	}
	if out.Spot.PDUWatts[0] == 0 {
		t.Errorf("restored PDU#1 still offers no spot")
	}
}

func TestResponderReSuspensionResetsCalm(t *testing.T) {
	op, _ := newEmergencyOp(t, 2)
	overloaded := power.Reading{
		RackWatts:     []float64{220, 180, 130, 110},
		OtherPDUWatts: []float64{395, 180},
	}
	healthy := power.Reading{
		RackWatts:     []float64{140, 120, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	op.ObserveEmergencies(overloaded, 0.05) // suspend
	op.ObserveEmergencies(healthy, 0.05)    // calm 1
	op.ObserveEmergencies(overloaded, 0.05) // re-excursion: calm resets
	op.ObserveEmergencies(healthy, 0.05)    // calm 1 again
	if len(op.LastRestores()) != 0 {
		t.Fatalf("restored despite interrupted recovery")
	}
	op.ObserveEmergencies(healthy, 0.05) // calm 2: restore
	if len(op.LastRestores()) != 1 {
		t.Fatalf("no restore after two consecutive calm slots")
	}
	if got := op.EmergenciesActed(); got != 2 {
		t.Errorf("EmergenciesActed = %d, want 2", got)
	}
}

func TestResponderQuiescentPathAllocFree(t *testing.T) {
	op, _ := newEmergencyOp(t, 2)
	healthy := power.Reading{
		RackWatts:     []float64{140, 120, 130, 110},
		OtherPDUWatts: []float64{180, 180},
	}
	allocs := testing.AllocsPerRun(100, func() {
		op.ObserveEmergencies(healthy, 0.05)
	})
	if allocs > 0 {
		t.Errorf("healthy-slot emergency scan allocates %v times per call, want 0", allocs)
	}
}

// TestBudgetResetFailuresAreCounted: a rack PDU that refuses its budget
// reset must not stop the responder (the plan is still acted on), and must
// not go unnoticed either — both the
// failures_total counter and HookFailures, which spotdc-operator prints at
// shutdown, see every failed reset and the last error.
func TestBudgetResetFailuresAreCounted(t *testing.T) {
	refused := errors.New("rack PDU unreachable")
	met := NewMetrics(metrics.NewRegistry())
	op, err := New(Config{
		Topology:      testTopo(t),
		MarketOptions: core.Options{PriceStep: 0.001},
		Metrics:       met,
		Emergency: &ResponderConfig{
			RecoverySlots: 2,
			SetBudget:     func(int, float64) error { return refused },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, last := op.HookFailures(); n != 0 || last != nil {
		t.Fatalf("fresh operator reports %d failures (%v)", n, last)
	}
	overloaded := power.Reading{
		RackWatts:     []float64{220, 180, 130, 110},
		OtherPDUWatts: []float64{395, 180}, // PDU#1 load 795 > 750.75
	}
	op.ObserveEmergencies(overloaded, 0.05)
	if op.EmergenciesActed() != 1 {
		t.Fatalf("EmergenciesActed = %d, want 1: a failing hook stopped the responder", op.EmergenciesActed())
	}
	targets := len(op.LastReclaims()[0].Targets)
	n, last := op.HookFailures()
	if n != targets || !errors.Is(last, refused) {
		t.Errorf("HookFailures = %d, %v; want %d, %v", n, last, targets, refused)
	}
	if got := met.resetFailures.Value(); got != uint64(targets) {
		t.Errorf("spotdc_operator_budget_reset_failures_total = %d, want %d", got, targets)
	}
}
