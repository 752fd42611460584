# SpotDC build/verify entry points.
#
#   make check          scripts/check.sh: build, vet, gofmt, every test once
#                       under the race detector (the smokes below included),
#                       fuzz and benchmark smokes, the bench/ module,
#                       examples/
#   make test           tier-1 verification only (build + tests)
#   make smoke-faults   seeded fault-schedule smoke run: 220 networked slots
#                       with bid loss, broadcast loss, severed connections
#                       and a forced operator failure, race detector on
#   make smoke-metrics  observability smoke run: a short networked market
#                       scraped over live HTTP /metrics mid-run, race
#                       detector on
#   make smoke-emergency emergency-loop smoke run: a seeded overload on a
#                       networked market triggers spot reclamation, rack
#                       PDU budget resets, tenant budget broadcasts and
#                       recovery, race detector on
#   make audit-replay   conservation audit smoke: the seeded 220-slot
#                       networked run journals full slot inputs and the
#                       offline auditor replays every cleared slot
#                       bit-identically through both engines
#   make smoke-wire     binary-wire smoke run: the seeded 220-slot fault
#                       schedule entirely on the binary encoding, plus the
#                       mixed-fleet JSON/binary interop contract, race
#                       detector on
#   make smoke-spans    tracing smoke run: the seeded 220-slot networked
#                       market traced at 100% sampling must yield one root
#                       span per journaled slot with full stage coverage
#                       and tenant traces adopted over both encodings,
#                       plus the span-journal → Chrome trace-event
#                       pipeline, race detector on
#   make smoke-crash    crash-injection smoke run: the seeded 220-slot
#                       networked market killed at randomized slot
#                       boundaries (one kill tearing the WAL tail) and
#                       recovered from the state directory each time must
#                       produce books, responder state and a slot
#                       journal bit-identical to an uninterrupted run,
#                       race detector on
#   make fuzz-smoke     10 s each of the two slot-record fuzzers — the
#                       journal's packed-section decoder and the WAL slot-
#                       record decoder — past their seed corpora: hostile
#                       counts, lengths and trailing bytes must be refused
#                       before anything is sized from them
#
# Performance is measured by the slot-budget benchmark, bench/ (see
# bench/README.md): bash bench/run.sh -all

GO ?= go

.PHONY: check test smoke-faults smoke-metrics smoke-emergency smoke-wire smoke-spans smoke-crash fuzz-smoke audit-replay

check:
	./scripts/check.sh

test:
	$(GO) build ./...
	$(GO) test ./...

smoke-faults:
	$(GO) test -race -count=1 -v -run 'TestNetRunSeededFaultSchedule' ./internal/sim/

smoke-metrics:
	$(GO) test -race -count=1 -v -run 'TestSmokeMetricsScrape' .

smoke-emergency:
	$(GO) test -race -count=1 -v -run 'TestNetRunEmergency' ./internal/sim/

smoke-wire:
	$(GO) test -race -count=1 -v -run 'TestSmokeWire|TestMixedFleetInteropMatchesAllJSON' ./internal/sim/

smoke-spans:
	$(GO) test -race -count=1 -v -run 'TestNetRunSpansMatchFaultSchedule|TestSmokeSpans' ./internal/sim/

smoke-crash:
	$(GO) test -race -count=1 -v -run 'TestCrash' ./internal/sim/

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzJournalSectionDecode' -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz 'FuzzSlotRecordDecode' -fuzztime 10s ./internal/proto/

audit-replay:
	$(GO) test -race -count=1 -v -run 'TestGoldenNetRunJournalReplay' ./internal/audit/
