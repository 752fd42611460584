#!/bin/sh
# check.sh — the repo's full verification gate:
#
#   1. go build ./...        everything compiles
#   2. go vet ./...          static checks
#   3. gofmt -l .            every .go file in the tree (bench/ and
#      testdata/ included; nothing is rewritten) is gofmt-formatted
#   4. go test -race -count=1 ./...   every test once, under the race
#      detector and uncached. That includes the concurrency-heavy protocol
#      and networked-simulator suites, the parallel exact-clearing engine
#      (internal/core/clear_exact.go), the scenario fan-out determinism
#      contract (TestFanOutDeterminism; the golden diff TestAllMatchesGolden
#      skips itself under -race and runs in the tier-1 `go test ./...`), and
#      the end-to-end smokes that also have make targets: the live
#      /metrics scrape (smoke-metrics), the Section III-C emergency arc
#      (smoke-emergency), the seeded audit replay through both engines
#      (audit-replay), the binary wire and mixed-fleet interop
#      (smoke-wire), slot tracing and Chrome trace export (smoke-spans),
#      and crash recovery with bit-identical books, responder state and
#      journal (smoke-crash); and TestNoTestOnlyAPI, the guard that fails on
#      exported internal/ API no product code calls
#   5. the fuzz smoke: 10 s each of the two fuzzers that read the slot's
#      records back — the journal's packed-section decoder and the WAL
#      slot-record decoder — so hostile counts, lengths and trailing bytes
#      are exercised past the seed corpora on every check (make fuzz-smoke)
#   6. a one-iteration smoke of the Fig. 7(b) clearing benchmark, which
#      doubles as a regression tripwire for the allocation-free hot loop
#      (the alloc budgets themselves are enforced by TestClearAllocBudget
#      and, with instrumentation or tracing on, by
#      TestClearAllocBudgetInstrumented and TestClearAllocBudgetTraced),
#      and of the wire-layer benchmarks (their steady-state alloc budgets
#      are enforced by TestWireAllocBudget, the slot records' by
#      TestSlotRecordAllocBudget)
#   7. the benchmark harness: bench/ is a Go module of its own (replace
#      spotdc => ../), so `./...` above never reaches it; vet and test it
#      against this checkout so an internal/* API change cannot break the
#      BENCHMARK.json harness unnoticed
#   8. every examples/ program, built and run: they are the only consumers
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
echo '== gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi
echo '== go test -race -count=1 ./...'
go test -race -count=1 ./...
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
