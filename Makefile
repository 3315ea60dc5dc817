# Tier-1 gate and developer shortcuts for the JOSS reproduction.

GO ?= go

.PHONY: tier1 fmt vet build test chaos bench perfgate profile-fig8 clean

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
# recovery, journal replay, durable DELETE and journaled retention,
# run-unit preemption (the dispatcher's nesting rule and accounting,
# and the probe storm that runs probes nested in parked sweep units),
# the metrics registry storm (concurrent updates racing a scraper), and
# the worker-thread checks (lowered worker priority, a main thread
# never lowered, threads released by Close, the small-request
# overtake) — the tests most sensitive to timing, so they get extra
# iterations beyond the single tier-1 pass. It ends with a short
# coverage-guided fuzz pass over the wire sweep decoder, over
# job-journal replay, over plan-store loading and over jossrun's
# Retry-After parsing (tier-1 replays only their committed seed
# corpora). Each new input is minimised for at most 100 execs: Go's
# default of 60 s per input would use up the whole 10 s pass.
chaos:
	$(GO) test -race -count=3 \
		-run 'TestSessionOverloadStormByteIdentical|TestSessionCancelInterruptsInFlight|TestSessionDrain|TestSessionJobJournalReplay|TestJobDeleteDurable|TestSessionJobRetention|TestSessionProbeStormByteIdentical|TestHTTPOverloadAndDrain|TestCrashRecoverySIGKILL|TestSessionCloseReleasesWorkerThreads|TestSessionSmallRequestOvertakesLargeSweep' \
		./internal/service
	$(GO) test -race -count=3 -run 'TestPreempt|TestAdmitStartsAtMinimumService|TestWorkerThreadsLowered|TestMainThreadNotLowered' ./internal/dispatch
	$(GO) test -race -count=3 ./internal/jobstore
	$(GO) test -race -count=3 -run 'TestCancel' ./internal/taskrt
	$(GO) test -race -count=3 -run 'TestRegistryStorm' ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzBuildSweepRequest$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzJobJournal$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzPlanStore$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzRetryDelay$$' -fuzztime=10s -fuzzminimizetime=100x ./cmd/jossrun

# bench runs the perf-tracking benchmarks with allocation stats.
bench:
	$(GO) test -run=NONE -bench='BenchmarkRuntimeThroughput|BenchmarkFig8$$' -benchmem -benchtime=2s .

# perfgate is the CI perf regression gate: it runs the root benchmarks
# of a base git revision (default: the merge-base with main) and of the
# working tree in alternating pairs and fails when the median pair
# ratio of a gated row crosses its threshold (see cmd/perfgate).
perfgate:
	$(GO) run ./cmd/perfgate

# profile-fig8 writes the CPU profile of BenchmarkFig8 (5 s) to
# fig8.cpu.prof, keeps the test binary beside it as fig8.test for
# symbol lookup, and prints the 25 functions with the most flat samples.
profile-fig8:
	$(GO) test -run '^$$' -bench 'BenchmarkFig8$$' -benchtime 5s -cpuprofile fig8.cpu.prof -o fig8.test .
	$(GO) tool pprof -top -nodecount=25 fig8.test fig8.cpu.prof

clean:
	rm -f fig8.cpu.prof fig8.test
