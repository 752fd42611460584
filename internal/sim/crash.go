// Crash-injection harness: the networked scenario runner with an operator
// that dies and recovers mid-horizon. A CrashNetRun is the same seeded
// market as NetRun — real TCP tenants, real MarketLoop — but segmented
// into operator lifetimes: at each configured kill point the market loop
// stops at a slot boundary, the WAL's file descriptors are yanked
// (wal.Log.Kill — no flush, no close), the server goes away, and a fresh
// "process" (new operator, new server, new rack-PDU emulations, new tenant
// sessions) recovers from the state directory and resumes. The harness
// exists to prove the durability claim end to end: a killed-and-recovered
// run must produce books, responder state, and a journal bit-identical to
// an uninterrupted run of the same seed. The emulated rack PDUs are devices,
// not operator state: an operator crash does not reset them, so each
// lifetime hands its PDUs' budgets to the next one directly.
//
// Determinism discipline: crash runs take no protocol faults (injectors
// are seed-positional and cannot resume mid-schedule), the loop's
// BeforeBids barrier waits for every expected bid to arrive before the
// drain (so scheduling jitter cannot slip a bid to the no-spot default in
// one run but not the other), and Server.TakeBids hands bids over in
// canonical rack order. Everything else — readings, traces, overloads —
// is already a pure function of the slot index.
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spotdc/internal/operator"
	"spotdc/internal/proto"
	"spotdc/internal/tenant"
	"spotdc/internal/wal"
)

// bidBarrierWait caps how long past its boundary a crash run's slot waits
// for its expected bids: far beyond any scheduling delay, so only a tenant
// that will never bid reaches it.
const bidBarrierWait = 5 * time.Second

// CrashKill is one injected operator death.
type CrashKill struct {
	// AfterSlot kills the operator once this slot has committed and
	// broadcast (the loop stops cleanly at the boundary, then the WAL's
	// descriptors are yanked without flush or close).
	AfterSlot int
	// TearTail additionally appends a partial frame to the newest WAL
	// segment after the kill — the torn write of a slot record the dying
	// process never finished. Recovery must truncate it and resume at the
	// same slot as a clean kill.
	TearTail bool
}

// CrashRunOptions configures the kill schedule and the durable state.
type CrashRunOptions struct {
	// StateDir is the WAL directory shared by every operator lifetime
	// (required).
	StateDir string
	// JournalPath, if non-empty, writes the slot journal to this file: the
	// first lifetime truncates it, every later one appends (header only
	// into an empty file) — exactly what spotdc-operator -events does
	// across restarts.
	JournalPath string
	// Policy is the WAL fsync discipline (zero value: every record).
	Policy wal.SyncPolicy
	// SegmentBytes / SnapshotEvery tune WAL rotation and snapshot cadence
	// (zeros take the wal/proto defaults).
	SegmentBytes  int64
	SnapshotEvery int
	// Kills is the schedule of operator deaths, strictly increasing by
	// AfterSlot; each must leave at least one slot to run afterwards.
	Kills []CrashKill
}

// CrashResult summarizes a segmented run.
type CrashResult struct {
	// Segments counts operator lifetimes (kills + 1).
	Segments int
	// Truncations / Replayed total the WAL repairs and slot records
	// replayed across every recovery.
	Truncations int
	Replayed    int
	// Cleared / SlotErrors / InfeasibleSlots sum the live (non-replayed)
	// slot counters over all lifetimes.
	Cleared         int
	SlotErrors      int
	InfeasibleSlots int
	// SpotRevenue and Checkpoint are the final operator's books — the
	// bit-identity handle the crash tests compare against an
	// uninterrupted run.
	SpotRevenue float64
	Checkpoint  operator.Checkpoint
}

func (c *CrashRunOptions) validate(sc Scenario, opts NetRunOptions) error {
	if c.StateDir == "" {
		return fmt.Errorf("sim: crash run needs a StateDir")
	}
	if opts.Journal != nil {
		return fmt.Errorf("sim: crash runs own their journal; use CrashRunOptions.JournalPath")
	}
	if opts.Registry != nil {
		return fmt.Errorf("sim: crash runs do not support a metrics registry (families would re-register per lifetime)")
	}
	if opts.BidFaults != (proto.FaultPlan{}) || opts.BroadcastFaults != (proto.FaultPlan{}) {
		return fmt.Errorf("sim: crash runs take no protocol faults (injector schedules are seed-positional and cannot resume)")
	}
	prev := -1
	for _, k := range c.Kills {
		if k.AfterSlot <= prev {
			return fmt.Errorf("sim: kill slots must be strictly increasing (%d after %d)", k.AfterSlot, prev)
		}
		if k.AfterSlot >= sc.Slots-1 {
			return fmt.Errorf("sim: kill after slot %d leaves nothing to recover (horizon %d)", k.AfterSlot, sc.Slots)
		}
		prev = k.AfterSlot
	}
	return nil
}

// expectedBids precomputes how many rack-level bids land per slot. Agents'
// PlanBids is a pure function of the slot (trace-driven), so walking the
// horizon up front tells the BeforeBids barrier exactly how many arrivals
// to wait for.
func expectedBids(sc Scenario) []int {
	expect := make([]int, sc.Slots)
	for slot := range expect {
		for _, a := range sc.Agents {
			// The empty hint mirrors runNetTenant's live call exactly.
			expect[slot] += len(netBids(sc.Topo, a.PlanBids(slot, tenant.MarketHint{})))
		}
	}
	return expect
}

// tearWALTail appends a partial frame to the newest WAL segment: a valid
// header claiming a 64-byte payload followed by only 8 bytes of it — the
// on-disk signature of a process dying mid-write. The bytes are built by
// hand on purpose: the harness simulates a torn write, it does not go
// through the log's API.
func tearWALTail(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	newest := ""
	for _, e := range entries {
		name := e.Name()
		// Fixed-width hex sequence names sort lexicographically.
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return fmt.Errorf("sim: no WAL segment to tear in %s", dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	torn := append([]byte{0xD7, 0x01, 0x01, 0x00, 0x00, 0x40}, make([]byte, 8)...)
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bidBarrier is a crash run's BeforeBids: every run, interrupted or not,
// must drain the same bid set per slot, so the drain waits for every
// expected bid however late it lands (RunSlots catches up on the boundaries
// it passed meanwhile). Bids still missing after bidBarrierWait refuse the
// slot, failing the run rather than clearing a short slot that the other
// run did not.
func bidBarrier(loop *proto.MarketLoop, expect []int) func(slot int) error {
	return func(slot int) error {
		deadline := loop.Clock.StartOf(slot).Add(bidBarrierWait)
		for loop.Server.BufferedBids(slot) < expect[slot] {
			if time.Now().After(deadline) {
				return fmt.Errorf("bid barrier timed out: slot %d has %d of %d bids %v past its boundary",
					slot, loop.Server.BufferedBids(slot), expect[slot], bidBarrierWait)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
}

// CrashNetRun executes the scenario as a sequence of operator lifetimes
// separated by the configured kills, recovering each lifetime from the
// StateDir. See the package comment in this file for the determinism
// contract.
//
// testhook: the crash-recovery smoke drives it
func CrashNetRun(sc Scenario, opts NetRunOptions, crash CrashRunOptions) (*CrashResult, error) {
	cfg, err := netConfig(sc, &opts)
	if err != nil {
		return nil, err
	}
	if err := crash.validate(sc, opts); err != nil {
		return nil, err
	}
	cfg.Dir = crash.StateDir
	cfg.Policy = crash.Policy
	cfg.SegmentBytes = crash.SegmentBytes
	cfg.SnapshotEvery = crash.SnapshotEvery
	cfg.JournalPath = crash.JournalPath
	lt := lifetime{expect: expectedBids(sc)}
	res := &CrashResult{}
	for seg := 0; seg <= len(crash.Kills); seg++ {
		var kill *CrashKill
		lt.to, lt.kill = sc.Slots, seg < len(crash.Kills)
		if lt.kill {
			kill = &crash.Kills[seg]
			lt.to = kill.AfterSlot + 1
		}
		live, p, err := runLifetime(sc, opts, cfg, lt)
		if err != nil {
			return nil, fmt.Errorf("sim: crash segment %d (slots %d..%d): %w", seg, lt.from, lt.to-1, err)
		}
		res.Segments++
		res.Truncations += p.Recovered.Truncations
		res.Replayed += p.Recovered.SlotsReplayed
		res.Cleared += live.Cleared
		res.SlotErrors += live.SlotErrors
		res.InfeasibleSlots += live.InfeasibleSlots
		if kill == nil {
			res.SpotRevenue = live.SpotRevenue
			res.Checkpoint = p.Loop.Operator.Checkpoint()
			break
		}
		// The rack PDUs outlive the operator and keep their budgets.
		lt.budgets = nil
		for _, u := range p.Units {
			lt.budgets = append(lt.budgets, u.Budget())
		}
		if kill.TearTail {
			if err := tearWALTail(crash.StateDir); err != nil {
				return nil, err
			}
		}
		lt.from = lt.to
	}
	return res, nil
}
