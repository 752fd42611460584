// Command spotdc-audit replays slot journals offline and re-verifies the
// market's conservation invariants: grant envelopes, hierarchical
// capacity (Eqns. 2–4), revenue arithmetic, degraded-slot zeroing, and —
// for journals with a header (schema v2 and v3) — bit-identical
// reproduction of every cleared slot through the recorded clearing engine,
// plus optional exact-vs-scan engine agreement.
//
// Usage:
//
//	spotdc-audit [-engine-check] [-agreement-rel 0.01] [-spans spans.jsonl] \
//	    [-v] journal.jsonl...
//	spotdc-audit -dump journal.jsonl... > expanded.jsonl
//
// Journals are produced by spotdc-operator -events or any harness wiring a
// SlotJournal into MarketLoop (e.g. the sim package's NetRun). v1
// journals (no header line) get outcome-level checks only; v2 and v3
// journals replay in full. Exits 1 if any journal fails an invariant.
//
// -dump audits nothing: it re-emits each journal on stdout as plain
// expanded JSONL (the v2 form), unpacking the binary section a v3 line
// carries its bid, grant and reading arrays in, so jq '.bid_set[]' and grep
// work on demand. The dump of a journal audits to the same report.
//
// -spans joins a trace-span journal (spotdc-operator -trace-spans) against
// the slot journal: every sampled root span must match a journaled slot,
// and — when the tracer sampled every slot — every journaled slot must have
// exactly one root span. A mismatch means the observability plane disagrees
// with the book of record, and fails the audit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"spotdc/internal/audit"
	"spotdc/internal/metrics"
	"spotdc/internal/otrace"
)

func main() {
	engineCheck := flag.Bool("engine-check", false, "additionally clear every replayed slot through the other engine and assert revenue agreement")
	agreementRel := flag.Float64("agreement-rel", 0, "relative revenue tolerance for -engine-check (0 = default 0.01)")
	spansFile := flag.String("spans", "", "join this trace-span journal (spotdc-operator -trace-spans) against the slot journal")
	maxPrint := flag.Int("max-violations", 20, "print at most this many violations per journal")
	verbose := flag.Bool("v", false, "narrate per-journal progress")
	dump := flag.Bool("dump", false, "audit nothing: re-emit the journals on stdout as plain expanded JSONL (packed sections unpacked)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: spotdc-audit [-engine-check] [-agreement-rel REL] [-spans spans.jsonl] [-v] journal.jsonl...\n       spotdc-audit -dump journal.jsonl...")
		os.Exit(2)
	}
	if *dump {
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			torn, err := metrics.DumpJournal(os.Stdout, f)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			if torn {
				log.Printf("%s: WARNING torn final line dropped (writer crashed mid-append)", path)
			}
		}
		return
	}

	opts := audit.Options{EngineCheck: *engineCheck, AgreementRel: *agreementRel}
	if *verbose {
		opts.Logf = log.Printf
	}

	// -spans: index the trace journal's root spans (no parent) by slot once;
	// the join below runs against every slot journal on the command line.
	rootSpans := map[int]int{}
	spanSampledAll := false
	if *spansFile != "" {
		f, err := os.Open(*spansFile)
		if err != nil {
			log.Fatal(err)
		}
		spans, err := otrace.ReadSpans(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", *spansFile, err)
		}
		for _, s := range spans {
			if s.Root() && s.Slot >= 0 {
				rootSpans[s.Slot]++
			}
		}
		fmt.Printf("%s: %d spans, %d slot traces\n", *spansFile, len(spans), len(rootSpans))
	}

	failed := 0
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := audit.Replay(f, opts)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if *spansFile != "" {
			// Re-read the journal for its per-slot events: the replay report
			// aggregates, the join needs slot identity.
			jf, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			_, events, jerr := metrics.ReadJournal(jf)
			jf.Close()
			if jerr != nil {
				log.Fatalf("%s: %v", path, jerr)
			}
			journaled := map[int]bool{}
			joinBad := 0
			for _, ev := range events {
				journaled[ev.Slot] = true
			}
			for slot, n := range rootSpans {
				if !journaled[slot] {
					fmt.Printf("%s: SPAN MISMATCH slot %d traced (%d root span(s)) but not journaled\n", path, slot, n)
					joinBad++
				} else if n > 1 {
					fmt.Printf("%s: SPAN MISMATCH slot %d has %d root spans, want 1\n", path, slot, n)
					joinBad++
				}
			}
			// With 100% sampling every journaled slot must have its trace;
			// detect that regime from full coverage of the slots seen so far.
			if spanSampledAll || len(rootSpans) >= len(journaled) {
				spanSampledAll = true
				for slot := range journaled {
					if rootSpans[slot] == 0 {
						fmt.Printf("%s: SPAN MISMATCH slot %d journaled but has no root span\n", path, slot)
						joinBad++
					}
				}
			}
			if joinBad > 0 {
				failed++
			} else {
				fmt.Printf("%s: spans join 1:1 with the journal (%d slot traces)\n", path, len(rootSpans))
			}
		}
		schema := "v1 (outcome-only)"
		if rep.Header != nil {
			schema = rep.Header.Schema[strings.LastIndexByte(rep.Header.Schema, '/')+1:]
		}
		fmt.Printf("%s: %s, %d slots (%d cleared, %d degraded), %d replayed, %d outcome-only, revenue $%.6f\n",
			path, schema, rep.Slots, rep.Cleared, rep.Degraded, rep.Replayed, rep.OutcomeOnly, rep.TotalRevenue)
		if rep.TornTail {
			fmt.Printf("%s: WARNING torn final line dropped (writer crashed mid-append)\n", path)
		}
		if rep.OK() {
			fmt.Printf("%s: OK — every invariant held\n", path)
			continue
		}
		failed++
		for i, v := range rep.Violations {
			if i >= *maxPrint {
				fmt.Printf("%s: ... and %d more violations\n", path, len(rep.Violations)-*maxPrint)
				break
			}
			fmt.Printf("%s: VIOLATION %s\n", path, v)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
