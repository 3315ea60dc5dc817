# Tier-1 gate and developer shortcuts for the JOSS reproduction.

GO ?= go

# PERF_BASELINE is the committed BENCH_*.json the perf gate compares
# against; update it when a PR intentionally moves the baseline.
PERF_BASELINE ?= BENCH_20261017T041551.json

.PHONY: tier1 fmt vet build test chaos bench bench-json perfgate clean

# tier1 is the repo's merge gate: formatting, vet, build, full test
# suite and the short benchmark smoke (one iteration per benchmark
# proves the bench harness still runs; perf numbers come from
# `make bench`).
tier1: fmt vet build test
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# chaos repeats the failure-path suite under the race detector:
# overload storms, mid-run cancellation, drain refusals, SIGKILL crash
# recovery, journal replay, the train-vs-lazy differential with its
# concurrent-train storm, durable DELETE and journaled retention,
# trainer rounds kept out of the job registry, the fleet fault drills
# (multi-daemon shard kill, drain spillover, 429 storm, ring-slice
# warm-up) and the metrics registry storm (concurrent updates racing a
# scraper) — the tests most sensitive to timing, so they get extra
# iterations beyond the single tier-1 pass. It ends with a short
# coverage-guided fuzz pass over each wire decoder and over job-journal
# replay (tier-1 replays only their committed seed corpora).
chaos:
	$(GO) test -race -count=3 \
		-run 'TestSessionOverloadStormByteIdentical|TestSessionCancelInterruptsInFlight|TestSessionDrain|TestSessionJobJournalReplay|TestJobDeleteDurable|TestSessionJobRetention|TestTrainRoundsStayInternal|TestSessionProbeStormByteIdentical|TestHTTPOverloadAndDrain|TestCrashRecoverySIGKILL|TestTrainThenSweepMatchesLazy|TestTrainConcurrentStorm' \
		./internal/service
	$(GO) test -race -count=3 ./internal/jobstore
	$(GO) test -race -count=3 -run 'TestCancel' ./internal/taskrt
	$(GO) test -race -count=3 \
		-run 'TestFleetSIGKILLDrill|TestFleetShardDeathFailover|TestFleetDrainSpillover|TestFleet429Spillover|TestFleetAllShardsDownDegradedError|TestFleetWarmupDrill|TestFleetHealthPassthroughAndMetrics' \
		./internal/fleet
	$(GO) test -race -count=3 -run 'TestRegistryStorm' ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzBuildSweepRequest$$' -fuzztime=10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzBuildTrainRequest$$' -fuzztime=10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzJobJournal$$' -fuzztime=10s ./internal/service

# bench runs the perf-tracking benchmarks with allocation stats.
bench:
	$(GO) test -run=NONE -bench='BenchmarkRuntimeThroughput|BenchmarkSweepReuse|BenchmarkFig8$$' -benchmem -benchtime=2s .

# bench-json writes a machine-readable BENCH_<timestamp>.json via the
# jossbench bench subcommand (cold and warm-worker numbers).
bench-json:
	$(GO) run ./cmd/jossbench -reuse bench

# perfgate is the CI perf regression gate: regenerate the bench report
# and fail if tasks/s dropped >20% against the committed baseline on
# any benchmark both report it for.
perfgate:
	$(GO) run ./cmd/jossbench -reuse -benchout BENCH_perfgate.json bench
	$(GO) run ./cmd/perfgate -baseline $(PERF_BASELINE) BENCH_perfgate.json

clean:
	rm -f BENCH_perfgate.json
