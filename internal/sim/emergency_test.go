package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spotdc/internal/metrics"
)

// emergencyTestbed is the shared overload schedule: every 10 slots, the
// last 4 slots surge every PDU#1 rack by 70 W — enough to push the PDU past
// its 750.75 W breaker threshold regardless of the agents' own draw.
func emergencyTestbed(t *testing.T, responder bool) Scenario {
	t.Helper()
	sc := testbedScenario(t, TestbedOptions{Seed: 5, Slots: 40})
	sc.Emergency = &EmergencyScenario{
		Responder:         responder,
		RecoverySlots:     2,
		OverloadEvery:     10,
		OverloadDuration:  4,
		OverloadRackWatts: 70,
		OverloadPDU:       0,
	}
	return sc
}

func TestEmergencyScenarioValidation(t *testing.T) {
	base := testbedScenario(t, TestbedOptions{Seed: 1, Slots: 5})
	bad := []EmergencyScenario{
		{EscalationSeverity: -1},
		{RecoverySlots: -1},
		{OverloadEvery: -1},
		{OverloadEvery: 5, OverloadDuration: 0},
		{OverloadEvery: 5, OverloadDuration: 6},
		{OverloadEvery: 5, OverloadDuration: 2, OverloadPDU: 9},
	}
	for i, e := range bad {
		sc := base
		e := e
		sc.Emergency = &e
		if _, err := Run(sc, RunOptions{}); err == nil {
			t.Errorf("bad emergency scenario %d accepted: %+v", i, e)
		}
	}
}

// TestEmergencyResponderContainsOverload is the tentpole's closed-loop
// check: with the responder on, every injected excursion is detected, spot
// capacity is reclaimed, the overloading racks are capped, and the element
// recovers within the control budget — without a single guaranteed watt
// cut. With the responder off, the same surge rides through the whole
// overload window uncontained.
func TestEmergencyResponderContainsOverload(t *testing.T) {
	off, err := Run(emergencyTestbed(t, false), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(emergencyTestbed(t, true), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The schedule must actually fire, or everything below is vacuous.
	if off.EmergencySlots == 0 {
		t.Fatal("overload schedule produced no emergencies with the responder off")
	}
	// Uncontained, the surge lasts its full 4-slot window.
	if off.LongestEmergencyRun < 4 {
		t.Errorf("responder-off longest run = %d, want the full 4-slot window", off.LongestEmergencyRun)
	}
	if off.EmergenciesActed != 0 || off.ReclaimedWatts != 0 {
		t.Errorf("responder off but acted=%d reclaimed=%v", off.EmergenciesActed, off.ReclaimedWatts)
	}

	// Contained: capping ends each excursion after the detection slot.
	if on.EmergenciesActed == 0 || on.ReclaimedWatts <= 0 {
		t.Fatalf("responder never acted: %+v", on)
	}
	if on.LongestEmergencyRun > 2 {
		t.Errorf("responder-on longest run = %d, want ≤ 2 (detect, settle)", on.LongestEmergencyRun)
	}
	if on.EmergencySlots >= off.EmergencySlots {
		t.Errorf("responder did not reduce emergency slots: on=%d off=%d", on.EmergencySlots, off.EmergencySlots)
	}
	// Spot users first, guaranteed tenants untouched.
	if on.GuaranteedCutWatts != 0 || on.InvoluntaryCuts != 0 {
		t.Errorf("guaranteed capacity cut: %v W across %d cuts", on.GuaranteedCutWatts, on.InvoluntaryCuts)
	}
}

// TestEmergencyNilIsBitIdentical pins the opt-in contract: a nil Emergency
// and an inert one (no overload, no responder) produce identical runs.
func TestEmergencyNilIsBitIdentical(t *testing.T) {
	base := testbedScenario(t, TestbedOptions{Seed: 7, Slots: 20})
	plain, err := Run(base, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inert := base
	inert.Emergency = &EmergencyScenario{}
	armed, err := Run(inert, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SpotRevenue != armed.SpotRevenue || plain.EmergencySlots != armed.EmergencySlots {
		t.Errorf("inert emergency scenario changed the run: revenue %v vs %v, emergencies %d vs %d",
			plain.SpotRevenue, armed.SpotRevenue, plain.EmergencySlots, armed.EmergencySlots)
	}
	for i := range plain.UPSPower {
		if plain.UPSPower[i] != armed.UPSPower[i] {
			t.Fatalf("slot %d UPS power %v vs %v", i, plain.UPSPower[i], armed.UPSPower[i])
		}
	}
}

// TestNetRunEmergencyReclaimsAndRecovers drives the whole emergency loop
// over real TCP: an injected three-slot overload at PDU#1 must trigger
// exactly one detected excursion, budget resets must land in the emulated
// rack PDUs (physically capping the next readings back under tolerance),
// budget-reset broadcasts must reach the affected tenants, spot sales at
// the element must resume after recovery — and not one guaranteed watt may
// be cut. The scraped emergency metrics and the slot journal must agree
// with the injected schedule exactly.
func TestNetRunEmergencyReclaimsAndRecovers(t *testing.T) {
	reg := metrics.NewRegistry()
	var journal bytes.Buffer
	sc := testbedScenario(t, TestbedOptions{Seed: 17, Slots: 20})
	res, err := NetRun(sc, NetRunOptions{
		SlotLen:  20 * time.Millisecond,
		Registry: reg,
		Journal:  metrics.NewJournal(&journal),
		Audit:    true,
		Emergency: &NetEmergencyOptions{
			RecoverySlots:     2,
			OverloadSlots:     []int{8, 9, 10},
			OverloadRackWatts: 70,
			OverloadPDU:       0,
			ResetDelay:        time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleared != 20 {
		t.Fatalf("cleared = %d, want 20 (emergencies degrade nothing)", res.Cleared)
	}

	// Slot 8 overloads PDU#1 (≈835 W > 750.75 W); the reclaim budgets cap
	// slots 9–10 back under tolerance, so exactly one slot reads as an
	// emergency and the responder acts exactly once.
	if res.EmergencySlots != 1 || res.EmergenciesActed != 1 {
		t.Errorf("emergency slots = %d, acted = %d, want 1/1", res.EmergencySlots, res.EmergenciesActed)
	}
	if res.ReclaimedWatts <= 0 {
		t.Errorf("reclaimed %v W, want > 0", res.ReclaimedWatts)
	}
	if res.GuaranteedCutWatts != 0 || res.InvoluntaryCuts != 0 {
		t.Errorf("guaranteed tenants lost %v W across %d cuts, want zero", res.GuaranteedCutWatts, res.InvoluntaryCuts)
	}
	// One reclaim (4 racks) + one restore (4 racks) = 8 rack-PDU resets.
	if res.BudgetResets != 8 {
		t.Errorf("rack-PDU budget resets = %d, want 8", res.BudgetResets)
	}
	// The budget-reset broadcasts reached live tenants.
	tenantResets := 0
	for _, ts := range res.Tenants {
		tenantResets += ts.BudgetResets
	}
	if tenantResets == 0 {
		t.Errorf("no tenant observed a budget-reset broadcast")
	}

	// Scrape surface agrees with the run exactly.
	if v, _ := reg.Value("spotdc_operator_emergency_slots_total"); int(v) != res.EmergencySlots {
		t.Errorf("emergency_slots_total = %v, want %d", v, res.EmergencySlots)
	}
	if v, _ := reg.Value("spotdc_operator_emergencies_acted_total"); int(v) != res.EmergenciesActed {
		t.Errorf("emergencies_acted_total = %v, want %d", v, res.EmergenciesActed)
	}
	if v, _ := reg.Value("spotdc_operator_reclaimed_watts_total"); v != res.ReclaimedWatts {
		t.Errorf("reclaimed_watts_total = %v, want %v", v, res.ReclaimedWatts)
	}
	if v, ok := reg.Value("spotdc_operator_involuntary_cuts_total"); ok && v != 0 {
		t.Errorf("involuntary_cuts_total = %v, want 0", v)
	}
	if v, _ := reg.Value("spotdc_rackpdu_budget_resets_total"); int(v) != res.BudgetResets {
		t.Errorf("rackpdu resets scraped = %v, want %d", v, res.BudgetResets)
	}

	// The journal carries the responder configuration and the reclaim /
	// suspension / restore record for deterministic replay.
	hdr, events, err := metrics.ReadJournal(strings.NewReader(journal.String()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || !hdr.EmergencyResponder || hdr.BreakerTolerance != 0.05 {
		t.Fatalf("journal header = %+v, want responder on at tolerance 0.05", hdr)
	}
	var reclaimSlots, restoreSlots, suspendedSlots []int
	for _, ev := range events {
		if len(ev.Reclaims) > 0 {
			reclaimSlots = append(reclaimSlots, ev.Slot)
		}
		if len(ev.RestoredPDUs) > 0 {
			restoreSlots = append(restoreSlots, ev.Slot)
		}
		if len(ev.SuspendedPDUs) > 0 {
			suspendedSlots = append(suspendedSlots, ev.Slot)
		}
	}
	if len(reclaimSlots) != 1 || reclaimSlots[0] != 8 {
		t.Errorf("journal reclaim slots = %v, want [8]", reclaimSlots)
	}
	if len(restoreSlots) != 1 || restoreSlots[0] != 10 {
		t.Errorf("journal restore slots = %v, want [10]", restoreSlots)
	}
	// Suspension zeroes the element's spot in the following slots'
	// predictions until the restore lands.
	if len(suspendedSlots) != 2 || suspendedSlots[0] != 9 || suspendedSlots[1] != 10 {
		t.Errorf("journal suspended slots = %v, want [9 10]", suspendedSlots)
	}
	ev8 := events[8]
	if len(ev8.Reclaims) != 1 || len(ev8.Reclaims[0].Budgets) != 4 {
		t.Fatalf("slot 8 reclaims = %+v, want one 4-rack plan", ev8.Reclaims)
	}
	if ev8.Reclaims[0].GuaranteedCutWatts != 0 || ev8.Reclaims[0].Escalated {
		t.Errorf("slot 8 plan touched guarantees: %+v", ev8.Reclaims[0])
	}
}

// TestNetRunEmergencyOffIsDefault asserts the emergency plane is strictly
// opt-in on the wire: without NetEmergencyOptions nothing is checked,
// reset, or counted.
func TestNetRunEmergencyOffIsDefault(t *testing.T) {
	sc := testbedScenario(t, TestbedOptions{Seed: 21, Slots: 10})
	res, err := NetRun(sc, NetRunOptions{SlotLen: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cleared != 10 {
		t.Errorf("cleared = %d, want 10", res.Cleared)
	}
	if res.EmergencySlots != 0 || res.EmergenciesActed != 0 || res.BudgetResets != 0 {
		t.Errorf("emergency plane active by default: %+v", res)
	}
}
