package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"spotdc/internal/audit"
	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/wal"
)

// probeIterations is how often each outside probe repeats (after one
// unmeasured call); it reports the median.
const probeIterations = 20

// timeMedian runs f once to warm it and probeIterations times measured.
func timeMedian(f func() error) (time.Duration, error) {
	xs := make([]float64, 0, probeIterations)
	for i := 0; i <= probeIterations; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if i > 0 {
			xs = append(xs, float64(time.Since(start)))
		}
	}
	return time.Duration(percentile(xs, 50)), nil
}

// prodRun is what the untraced prod window left behind for the probes.
type prodRun struct {
	dir         string
	spotRevenue float64
	slots       int
	recordBytes int // mean WAL bytes per slot
}

// probes times single layers from outside, on one goroutine, over the
// workload's own slot-0 bid set. Layers a workload does not run (WAL,
// journal, recovery, replay on the bare stacks) report 0.
func probes(w workload, in *inputs, run *prodRun, scratch string) (metricSet, error) {
	m := metricSet{}
	topo, err := power.NewTopology(in.ups, in.pdus, in.racks)
	if err != nil {
		return nil, err
	}
	var wire [tenantCount][]proto.RackBid
	var bids []core.Bid
	users := make(map[int]bool, len(in.racks))
	for t := range wire {
		wire[t] = in.scaleBids(nil, 0, t)
		for _, rb := range wire[t] {
			idx, _ := topo.RackByID(rb.Rack)
			users[idx] = true
			bids = append(bids, core.Bid{Rack: idx, Tenant: in.tenants[t],
				Fn: core.LinearBid{DMax: rb.DMax, DMin: rb.DMin, QMin: rb.QMin, QMax: rb.QMax}})
		}
	}

	predictOpts := power.PredictOptions{SpotUsers: users}
	d, err := timeMedian(func() error {
		_, err := topo.PredictSpot(in.reading, predictOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("power.predict_p50_ms", ms(d), "ms")

	spot, err := topo.PredictSpot(in.reading, predictOpts)
	if err != nil {
		return nil, err
	}
	cons := core.Constraints{
		RackHeadroom: make([]float64, len(in.racks)),
		RackPDU:      make([]int, len(in.racks)),
		PDUSpot:      spot.PDUWatts,
		UPSSpot:      spot.UPSWatts,
	}
	for i, r := range in.racks {
		cons.RackHeadroom[i], cons.RackPDU[i] = r.SpotHeadroom, r.PDU
	}
	var grants []proto.Grant
	var price float64
	for _, e := range []struct {
		name string
		algo core.Algorithm
	}{{"core.clear_exact_p50_ms", core.AlgorithmExact}, {"core.clear_scan_p50_ms", core.AlgorithmScan}} {
		mkt, err := core.NewMarket(cons, core.Options{Algorithm: e.algo})
		if err != nil {
			return nil, err
		}
		d, err := timeMedian(func() error {
			res, err := mkt.Clear(bids)
			if err == nil && e.algo == core.AlgorithmExact {
				price, grants = res.Price, grants[:0]
				for _, a := range res.Allocations[:len(wire[0])] {
					grants = append(grants, proto.Grant{Rack: in.racks[a.Rack].ID, Watts: a.Watts})
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		m.set(e.name, ms(d), "ms")
	}

	// One Send and one Recv of a full-size message of each kind through each
	// codec, over an in-memory pipe: encode beside decode, no socket.
	bidMsg := proto.Message{Type: proto.TypeBid, Tenant: in.tenants[0], Slot: 1, Bids: wire[0]}
	priceMsg := proto.Message{Type: proto.TypePrice, Tenant: in.tenants[0], Slot: 1, Price: price, Grants: grants}
	for _, c := range []struct {
		name string
		msg  proto.Message
	}{{"proto.codec_bid_us", bidMsg}, {"proto.codec_price_us", priceMsg}} {
		for _, enc := range []proto.Encoding{proto.WireBinary, proto.WireJSON} {
			pipe := &memPipe{}
			var codec proto.Wire = proto.NewCodec(pipe)
			if enc == proto.WireBinary {
				codec = proto.NewBinaryCodec(pipe)
			}
			d, err := timeMedian(func() error {
				if err := codec.Send(c.msg); err != nil {
					return err
				}
				got, err := codec.Recv()
				if err == nil && (len(got.Bids) != len(c.msg.Bids) || len(got.Grants) != len(c.msg.Grants)) {
					err = fmt.Errorf("%s %v: message did not round-trip", c.name, enc)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			m.set(c.name+"."+enc.String(), float64(d)/float64(time.Microsecond), "us")
		}
	}

	if run == nil {
		for _, name := range []string{"wal.append_sync_p50_ms.record", "wal.append_sync_p50_ms.slot",
			"wal.append_sync_p50_ms.timer", "metrics.journal_append_p50_ms", "wal.recover_ms"} {
			m.set(name, 0, "ms")
		}
		m.set("audit.replay_slots_per_s", 0, "1/s")
		return m, nil
	}

	payload := bytes.Repeat([]byte{'x'}, run.recordBytes)
	for _, p := range []wal.SyncPolicy{wal.SyncEveryRecord, wal.SyncEverySlot, wal.SyncTimer} {
		log, _, err := wal.Open(wal.Options{Dir: filepath.Join(scratch, "wal-"+p.String()), Policy: p})
		if err != nil {
			return nil, err
		}
		d, err := timeMedian(func() error {
			if _, err := log.Append(1, payload); err != nil {
				return err
			}
			return log.SlotSync()
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		m.set("wal.append_sync_p50_ms."+p.String(), ms(d), "ms")
	}

	// Recovery: reopen the state directory the prod window left and replay
	// it into a fresh operator; the books must come back bit for bit.
	start := time.Now()
	log, rec, err := wal.Open(wal.Options{Dir: filepath.Join(run.dir, "wal"), Policy: wal.SyncEverySlot})
	if err != nil {
		return nil, err
	}
	op, err := newOperator(w, topo, nil, nil, nil, nil)
	if err == nil {
		_, err = proto.RecoverDurable(rec, op, nil)
	}
	m.set("wal.recover_ms", ms(time.Since(start)), "ms")
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if got := op.SpotRevenue(); math.Float64bits(got) != math.Float64bits(run.spotRevenue) || op.Slots() != run.slots {
		return nil, fmt.Errorf("recovery restored revenue %v over %d slots, live run had %v over %d",
			got, op.Slots(), run.spotRevenue, run.slots)
	}

	// Journal probes work on the head of the run's journal: a whole
	// 15,000-rack journal is gigabytes, and replay speed is per slot.
	head, events, err := journalHead(filepath.Join(run.dir, "journal.jsonl"), 8)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	rep, err := audit.Replay(bytes.NewReader(head), audit.Options{})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	if rep.Replayed != events {
		return nil, fmt.Errorf("audit replayed %d of %d journaled slots", rep.Replayed, events)
	}
	m.set("audit.replay_slots_per_s", float64(events)/time.Since(start).Seconds(), "1/s")

	_, evs, err := metrics.ReadJournal(bytes.NewReader(head))
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(scratch, "journal-probe.jsonl"))
	if err != nil {
		return nil, err
	}
	j := metrics.NewJournal(f)
	d, err = timeMedian(func() error { return j.Append(evs[0]) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m.set("metrics.journal_append_p50_ms", ms(d), "ms")
	return m, nil
}

// journalHead returns the journal's header line and its first n events.
func journalHead(path string, n int) (head []byte, events int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for lines := 0; lines <= n; lines++ {
		line, err := r.ReadBytes('\n')
		if err != nil {
			break // a shorter journal: use what is there
		}
		head = append(head, line...)
		events = lines
	}
	if events == 0 {
		return nil, 0, fmt.Errorf("%s: no journaled slots", path)
	}
	return head, events, nil
}

// memPipe is a single-goroutine in-memory stream for the codec probes.
type memPipe struct{ bytes.Buffer }

func (*memPipe) Close() error { return nil }
