#!/bin/sh
# check.sh — the repo's full verification gate:
#
#   1. go build ./...        everything compiles
#   2. go vet ./...          static checks
#   3. go test -race on the concurrency-heavy packages — the protocol
#      layer (sessions, reconnect, fault injection) and the networked
#      simulator harness — so the Section III-C robustness machinery is
#      exercised under race checking explicitly on every run
#   4. targeted -race on the parallel-engine determinism tests — the
#      serial-vs-parallel bit-reproducibility contracts of the simulator
#      (Scenario.Parallel) and the experiment fan-out (Options.Workers);
#      the tests force GOMAXPROCS=4 internally so the parallel phases
#      really interleave even on a single-core runner
#   5. go test -race ./...   everything else under the race detector, so
#                            the parallel candidate evaluation inside the
#                            exact clearing engine
#                            (internal/core/clear_exact.go) is covered too
#   6. the observability smoke: a short networked market scraped over
#      live HTTP /metrics mid-run (make smoke-metrics), proving the
#      scrape surface end to end on every check
#   7. the emergency-loop smoke: a seeded overload on a networked market
#      drives the full Section III-C arc — spot reclamation, rack PDU
#      budget resets, tenant budget broadcasts, suspension and recovery —
#      under the race detector (make smoke-emergency)
#   8. the audit-replay gate: the seeded 220-slot networked fault run
#      journals full slot inputs (schema v3) and the offline auditor
#      (internal/audit) replays every cleared slot bit-identically
#      through both clearing engines, re-checking the conservation
#      invariants end to end (make audit-replay)
#   9. the wire smoke: the seeded 220-slot fault schedule entirely on the
#      binary encoding with an audit replay, plus the mixed-fleet interop
#      contract — JSON and binary tenants in one market produce the same
#      journal and metrics as an all-JSON fleet (make smoke-wire)
#  10. the tracing smoke: the seeded 220-slot networked market traced at
#      100% sampling must produce exactly one root span per journaled
#      slot with predict/clear/WAL/broadcast stage coverage, tenant
#      traces adopted into the operator's over both wire encodings, and
#      a span journal that converts to valid Chrome trace-event JSON
#      (make smoke-spans)
#  11. the crash-recovery smoke: the seeded 220-slot networked market is
#      killed at randomized slot boundaries — one kill leaving a torn WAL
#      record, one mid-emergency-suspension — and recovered from the
#      state directory each time; books, responder state, billing
#      invoices and the slot journal must come out bit-identical to an
#      uninterrupted run (make smoke-crash)
#  12. the fuzz smoke: 10 s each of the two fuzzers that read the slot's
#      records back — the journal's packed-section decoder and the WAL
#      slot-record decoder — so hostile counts, lengths and trailing bytes
#      are exercised past the seed corpora on every check (make fuzz-smoke)
#  13. a one-iteration smoke of the Fig. 7(b) clearing benchmark, which
#      doubles as a regression tripwire for the allocation-free hot loop
#      (the alloc budgets themselves are enforced by TestClearAllocBudget
#      and, with instrumentation or tracing on, by
#      TestClearAllocBudgetInstrumented and TestClearAllocBudgetTraced),
#      and of the wire-layer benchmarks (their steady-state alloc budgets
#      are enforced by TestWireAllocBudget, the slot records' by
#      TestSlotRecordAllocBudget)
#  14. the benchmark harness: bench/ is a Go module of its own (replace
#      spotdc => ../), so `./...` above never reaches it; vet and test it
#      against this checkout so an internal/* API change cannot break the
#      BENCHMARK.json harness unnoticed
#  15. every examples/ program, built and run: they are the only consumers
#      of the root package's API (spotdc.go), so they are its contract
#
# Tier-1 (ROADMAP.md) remains `go build ./... && go test ./...`; this script
# is a superset of it.
set -eu
cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...
echo '== go vet ./...'
go vet ./...
echo '== go test -race ./internal/proto/... ./internal/sim/...'
go test -race -count=1 ./internal/proto/... ./internal/sim/...
echo '== go test -race (parallel determinism contracts)'
go test -race -count=1 -run 'TestParallelMatchesSerial' ./internal/sim/
go test -race -count=1 -run 'TestFanOutDeterminism' ./internal/experiments/
echo '== go test -race ./...'
go test -race ./...
echo '== smoke: /metrics scrape of a live networked market'
go test -race -count=1 -run 'TestSmokeMetricsScrape' .
echo '== smoke: emergency loop on a networked market'
go test -race -count=1 -run 'TestNetRunEmergency' ./internal/sim/
echo '== audit replay: seeded journal through both engines'
go test -race -count=1 -run 'TestGoldenNetRunJournalReplay' ./internal/audit/
echo '== smoke: binary wire + mixed-fleet interop'
go test -race -count=1 -run 'TestSmokeWire|TestMixedFleetInteropMatchesAllJSON' ./internal/sim/
echo '== smoke: slot-lifecycle tracing + Chrome trace export'
go test -race -count=1 -run 'TestNetRunSpansMatchFaultSchedule|TestSmokeSpans' ./internal/sim/
echo '== smoke: crash injection + WAL recovery'
go test -race -count=1 -run 'TestCrash' ./internal/sim/ ./internal/billing/
echo '== fuzz smoke: journal packed section + WAL slot record decoders'
go test -run '^$' -fuzz 'FuzzJournalSectionDecode' -fuzztime 10s ./internal/metrics/
go test -run '^$' -fuzz 'FuzzSlotRecordDecode' -fuzztime 10s ./internal/proto/
echo '== bench smoke: Fig. 7(b) clearing'
go test -run '^$' -bench 'BenchmarkFig7bClearingTime' -benchtime 1x -benchmem .
echo '== bench smoke: wire codec + broadcast fan-out'
go test -run '^$' -bench 'BenchmarkCodec|BenchmarkBroadcast' -benchtime 1x -benchmem ./internal/proto/
echo '== bench harness module: go vet + go test'
(cd bench && go vet ./... && go test ./...)
echo '== examples: build and run each program against the root package API'
for ex in examples/*/main.go; do
	go run "./$(dirname "$ex")" >/dev/null
done
echo 'check: OK'
