// Command spotdc-tenant runs a tenant agent against a networked SpotDC
// operator (see cmd/spotdc-operator): it registers its rack, submits a
// four-parameter demand-function bid every slot, and reports the clearing
// price and its grant.
//
// Usage:
//
//	spotdc-tenant -name Count-1 -rack O-1 [-connect 127.0.0.1:7070]
//	              [-dmax 60] [-dmin 6] [-qmin 0.02] [-qmax 0.16]
//	              [-slot-seconds 10] [-slots N] [-reconnect] [-v]
//	              [-wire json|binary] [-peak-watts 205 [-idle-watts 60]]
//
// -wire selects the frame encoding. The default json is the line-delimited
// JSON protocol every operator accepts; binary is the compact
// length-prefixed encoding (the operator answers in kind, so mixed fleets
// interoperate).
//
// Output is quiet by default — only connection establishment and failures
// are logged; -v adds per-slot price/grant lines and reconnect diagnostics.
//
// Power capping: -peak-watts enables the tenant-side PI capping controller.
// When the operator declares a capacity emergency and resets this rack's
// power budget (Section III-C), the new budget is fed forward into the
// controller, which logs the budget and the performance knob it settles to —
// the hook a production deployment uses to drive RAPL/DVFS.
package main

import (
	"errors"
	"flag"
	"log"
	"time"

	"spotdc/internal/capping"
	"spotdc/internal/proto"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:7070", "operator address")
	name := flag.String("name", "Count-1", "tenant name")
	rack := flag.String("rack", "O-1", "rack ID to bid for")
	dMax := flag.Float64("dmax", 60, "maximum spot demand (W)")
	dMin := flag.Float64("dmin", 6, "minimum spot demand (W)")
	qMin := flag.Float64("qmin", 0.02, "price at which demand is DMax ($/kWh)")
	qMax := flag.Float64("qmax", 0.16, "maximum acceptable price ($/kWh)")
	slotSeconds := flag.Int("slot-seconds", 10, "must match the operator's slot length")
	slots := flag.Int("slots", 0, "stop after this many slots (0 = run forever)")
	reconnect := flag.Bool("reconnect", true, "auto-reconnect with backoff when the session drops")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "base reconnect backoff (doubles per attempt, with jitter)")
	maxAttempts := flag.Int("max-attempts", 8, "reconnect attempts before giving up (-1 = unlimited)")
	wire := flag.String("wire", "json", "wire encoding: json (interoperable default) or binary (compact, allocation-free)")
	peakWatts := flag.Float64("peak-watts", 0, "enable the power-capping controller: rack peak draw at full performance (W); 0 = off")
	idleWatts := flag.Float64("idle-watts", 0, "rack idle draw for the capping model (W, with -peak-watts)")
	verbose := flag.Bool("v", false, "verbose: per-slot prices/grants and reconnect diagnostics (default: quiet)")
	flag.Parse()

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}
	enc, err := proto.ParseEncoding(*wire)
	if err != nil {
		log.Fatal(err)
	}

	// -peak-watts: emergency budget resets from the operator drive the
	// capping controller. OnBudgetReset runs inside AwaitPrice on this
	// goroutine, so the controller needs no locking.
	var capper *capping.Controller
	if *peakWatts > 0 {
		var err error
		capper, err = capping.New(capping.Config{
			Model:         capping.ServerModel{IdleWatts: *idleWatts, PeakWatts: *peakWatts},
			InitialBudget: *peakWatts,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	copts := proto.ClientOptions{
		Wire:        enc,
		Reconnect:   *reconnect,
		BackoffBase: *backoff,
		MaxAttempts: *maxAttempts,
		Logf:        logf,
		OnReconnect: func(attempt int, err error) {
			logf("spotdc-tenant: reconnect attempt %d: %v", attempt, err)
		},
	}
	if capper != nil {
		copts.OnBudgetReset = func(slot int, budgets []proto.Grant) {
			for _, b := range budgets {
				if b.Rack != *rack {
					continue
				}
				if err := capper.SetBudget(b.Watts); err != nil {
					log.Printf("slot %d: budget reset to %.1f W rejected: %v", slot, b.Watts, err)
					continue
				}
				watts, ticks := capper.Settle(1, 0.01, 50)
				log.Printf("slot %d: EMERGENCY budget reset — capped to %.1f W (knob %.2f, settled at %.1f W in %d ticks)",
					slot, b.Watts, capper.Knob(), watts, ticks)
			}
		}
	}
	client, err := proto.DialOpts(*connect, *name, []string{*rack}, copts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	log.Printf("spotdc-tenant %s: connected to %s, bidding for rack %s", *name, *connect, *rack)

	slotDur := time.Duration(*slotSeconds) * time.Second
	for slot := 0; *slots == 0 || slot < *slots; slot++ {
		bid := proto.RackBid{Rack: *rack, DMax: *dMax, QMin: *qMin, DMin: *dMin, QMax: *qMax}
		if err := client.SubmitBids(slot, []proto.RackBid{bid}); err != nil {
			// Section III-C: a lost bid means no spot capacity this slot,
			// not a dead tenant. Pace out the slot and try the next one.
			log.Printf("slot %d: submit failed (%v) — running without spot capacity", slot, err)
			time.Sleep(slotDur)
			continue
		}
		price, grants, err := client.AwaitPrice(slot, slotDur+2*time.Second)
		switch {
		case errors.Is(err, proto.ErrNoPrice):
			// Section III-C: communication loss defaults to no spot capacity.
			log.Printf("slot %d: no price broadcast — running without spot capacity", slot)
			continue
		case err != nil:
			log.Printf("slot %d: await failed (%v) — running without spot capacity", slot, err)
			continue
		}
		total := 0.0
		for _, g := range grants {
			total += g.Watts
		}
		logf("slot %d: price $%.3f/kWh, granted %.1f W of spot capacity", slot, price, total)
	}
	if n := client.Reconnects(); n > 0 {
		log.Printf("spotdc-tenant %s: session survived %d reconnects", *name, n)
	}
}
