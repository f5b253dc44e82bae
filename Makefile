GO ?= go

# Packages with a BenchmarkHotPath microbenchmark of the per-access pipeline.
BENCH_PKGS := ./internal/cache ./internal/pmu ./internal/dram ./internal/machine

.PHONY: all build test race fuzz-smoke fault-smoke resume-smoke serve-smoke worker-smoke vet lint fma-check fmt check bench bench-guard loc

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

race:
	$(GO) test -race -timeout 20m ./...

# Ten seconds per fuzz target: enough to shake out regressions in the
# mapper round-trip, DRAM-ref, cache-policy, cache-replay, request-ring and
# lease-upload invariants without stalling CI. FuzzRefMatchesAccess's
# inputs are 2 KB, and minimising the first new one would take all ten
# seconds, so its new inputs are kept as found.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMapperRoundTrip -fuzztime 10s ./internal/dram
	$(GO) test -run '^$$' -fuzz FuzzRefMatchesAccess -fuzztime 10s -fuzzminimizetime 1x ./internal/dram
	$(GO) test -run '^$$' -fuzz FuzzPolicyInvariants -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzReplayMatchesAccess -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzPeriodicRingMatchesPerOp -fuzztime 10s ./internal/machine
	$(GO) test -run '^$$' -fuzz FuzzFaultSpec -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzLeaseUpload -fuzztime 10s ./internal/sweepd

# The degraded-hardware experiments under the hardened runner: per-replicate
# timeouts and keep-going failure reporting exercised end to end.
fault-smoke:
	$(GO) run ./cmd/tables -quick -seed 7 -timeout 5m -keep-going \
		-only degraded-sampling,fault-matrix

# Durable sweeps end to end: a replicate budget truncates a journaled
# fault-matrix run; the resumed run must merge byte-identically with an
# uninterrupted golden.
resume-smoke:
	rm -rf /tmp/anvil-resume-smoke && mkdir -p /tmp/anvil-resume-smoke
	$(GO) run ./cmd/tables -quick -seed 7 -only fault-matrix \
		-out /tmp/anvil-resume-smoke/golden.json
	$(GO) run ./cmd/tables -quick -seed 7 -only fault-matrix \
		-journal /tmp/anvil-resume-smoke/jnl -budget 2 \
		-out /tmp/anvil-resume-smoke/truncated.json
	$(GO) run ./cmd/tables -quick -seed 7 -only fault-matrix \
		-journal /tmp/anvil-resume-smoke/jnl -resume \
		-out /tmp/anvil-resume-smoke/resumed.json
	diff /tmp/anvil-resume-smoke/golden.json /tmp/anvil-resume-smoke/resumed.json
	@echo "resume-smoke: resumed run is byte-identical to the golden"

# The crash-safe sweep service end to end. First the chaos harness under the
# race detector: submit → kill -9 at a seeded replicate → restart →
# byte-diff against an uninterrupted golden, plus the SIGTERM drain variant.
# Then a live-binary smoke: boot anvilserved on an ephemeral port, submit a
# registry experiment with curl, poll to completion, fetch the artifact, and
# drain the server with SIGTERM.
serve-smoke:
	$(GO) test -race -run 'TestChaos' -v ./internal/sweepd
	rm -rf /tmp/anvil-serve-smoke && mkdir -p /tmp/anvil-serve-smoke
	$(GO) build -o /tmp/anvil-serve-smoke/anvilserved ./cmd/anvilserved
	set -e; \
	/tmp/anvil-serve-smoke/anvilserved -addr 127.0.0.1:0 \
		-data /tmp/anvil-serve-smoke/data \
		-portfile /tmp/anvil-serve-smoke/port & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		[ -s /tmp/anvil-serve-smoke/port ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/anvil-serve-smoke/port); \
	id=$$(curl -sf -X POST "http://$$addr/v1/jobs" \
		-d '{"experiment":"fault-matrix","quick":true,"seed":7}' \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	echo "serve-smoke: submitted $$id to $$addr"; \
	for i in $$(seq 1 600); do \
		code=$$(curl -s -o /tmp/anvil-serve-smoke/result.json \
			-w '%{http_code}' "http://$$addr/v1/jobs/$$id/result"); \
		[ "$$code" = 200 ] && break; [ "$$code" = 409 ] && exit 1; sleep 0.5; done; \
	[ "$$code" = 200 ]; \
	[ -s /tmp/anvil-serve-smoke/result.json ]; \
	kill -TERM $$pid; trap - EXIT; wait $$pid
	@echo "serve-smoke: artifact fetched and server drained cleanly"

# The distributed sweep plane end to end. First the worker-fleet chaos
# harness under the race detector: three real worker subprocesses sharing one
# job, one SIGKILLed mid-replicate, one network-partitioned by the netchaos
# proxy, with the artifact byte-diffed against an uninterrupted golden — plus
# the SIGTERM graceful-handoff and in-process soft-stop variants, and a
# replicate that always fails ending its job instead of bouncing between
# claims. Then a live-binary smoke: anvilserved -distribute (default timing)
# plus two anvilworkerd processes asking for two slots per claim, computing a
# shardable registry job, fetched over curl, everything drained with
# SIGTERM.
worker-smoke:
	$(GO) test -race -run 'TestWorkerFleetChaos|TestWorkerSIGTERMGraceful|TestSoftStopFinishesInFlightReplicate|TestFailingReplicateEndsJob' -v ./internal/workerd
	rm -rf /tmp/anvil-worker-smoke && mkdir -p /tmp/anvil-worker-smoke
	$(GO) build -o /tmp/anvil-worker-smoke/anvilserved ./cmd/anvilserved
	$(GO) build -o /tmp/anvil-worker-smoke/anvilworkerd ./cmd/anvilworkerd
	set -e; \
	/tmp/anvil-worker-smoke/anvilserved -addr 127.0.0.1:0 \
		-data /tmp/anvil-worker-smoke/data \
		-distribute -portfile /tmp/anvil-worker-smoke/port & \
	spid=$$!; trap 'kill $$spid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		[ -s /tmp/anvil-worker-smoke/port ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/anvil-worker-smoke/port); \
	/tmp/anvil-worker-smoke/anvilworkerd -coordinator "http://$$addr" -id smoke-w1 -seed 1 \
		-max-slots 2 > /tmp/anvil-worker-smoke/w1.log 2>&1 & w1=$$!; \
	/tmp/anvil-worker-smoke/anvilworkerd -coordinator "http://$$addr" -id smoke-w2 -seed 2 \
		-max-slots 2 > /tmp/anvil-worker-smoke/w2.log 2>&1 & w2=$$!; \
	trap 'kill $$spid $$w1 $$w2 2>/dev/null' EXIT; \
	id=$$(curl -sf -X POST "http://$$addr/v1/jobs" \
		-d '{"experiment":"fault-matrix","quick":true,"seed":7}' \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	echo "worker-smoke: submitted $$id to $$addr"; \
	for i in $$(seq 1 600); do \
		code=$$(curl -s -o /tmp/anvil-worker-smoke/result.json \
			-w '%{http_code}' "http://$$addr/v1/jobs/$$id/result"); \
		[ "$$code" = 200 ] && break; sleep 0.5; done; \
	[ "$$code" = 200 ]; \
	[ -s /tmp/anvil-worker-smoke/result.json ]; \
	grep -q 'released after' /tmp/anvil-worker-smoke/w1.log /tmp/anvil-worker-smoke/w2.log; \
	kill -TERM $$w1 $$w2; wait $$w1; wait $$w2; \
	kill -TERM $$spid; trap - EXIT; wait $$spid
	@echo "worker-smoke: fleet computed the job; workers and coordinator drained cleanly"

vet:
	$(GO) vet ./...

# The project's own determinism/correctness analyzers (see internal/lint),
# the same run as CI's lint job.
lint:
	$(GO) run ./cmd/anvillint ./...

# No fused multiply-add in simulator code: every command cross-compiled for
# arm64, whose backend fuses x*y + z, must show none inside a repro
# function (.github/fma-check.sh, the same check as CI's lint job).
fma-check:
	bash .github/fma-check.sh

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The per-access hot-path microbenchmarks: 5 repetitions with allocation
# counts. End-to-end speed is perfbench's (see bench-guard).
bench:
	$(GO) test -run '^$$' -bench BenchmarkHotPath -benchmem -count 5 $(BENCH_PKGS)

# The paired benchmark guard CI runs: perfbench's hammer and lease workloads
# on the tree at BASE and on this checkout, alternating, failing when the
# checkout's median replicates_per_ref_s drops below 0.8x the base's.
# Usage: make bench-guard BASE=origin/main (about 4 minutes).
bench-guard:
	bash .github/bench-guard.sh $(BASE)

# Lines of Go, non-test and test, over the tracked files outside perfbench/
# and testdata directories: the code size every change reports.
loc:
	@files="$$(git ls-files '*.go' | grep -v -e '^perfbench/' -e '/testdata/')"; \
	echo "non-test Go lines: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test Go lines:     $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"

check: fmt build vet lint test race
