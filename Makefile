GO ?= go

.PHONY: build test check bench bench-compare chaos sim fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: build + vet + tests + race detector over the
# concurrency-sensitive packages. See scripts/check.sh.
check:
	sh scripts/check.sh

# bench runs the telemetry-overhead comparison (instrumented vs
# uninstrumented ingest) on top of the full check.
bench:
	sh scripts/check.sh -bench

# bench-compare runs the performance gate: the 16 micro-benchmarks in
# cmd/benchgate's table, summarised into the five BENCH_*.json, failing
# on each row's absolute allocs/op ceiling. The table is where a
# ceiling lives. More repetitions: go run ./cmd/benchgate -count 5
bench-compare:
	$(GO) run ./cmd/benchgate

# chaos runs the fault-injection suite under the race detector: the
# in-memory network's fault tests plus the end-to-end chaos campaigns
# (listener-injected kills/resets, beacon reconnects, WAL crash recovery).
chaos:
	sh scripts/check.sh -chaos

# sim runs the deterministic simulation sweep: 25 seeded schedules
# through the full beacon -> collector -> store -> audit pipeline under
# -race with the invariant oracle watching, plus the trace-digest
# determinism gate and 20 race runs of the virtual-clock gateway wire
# schedules. Reproduce a failing seed with:
#   go test ./internal/simtest -run TestSim -seed=<n> [-only=<sessions>]
sim:
	sh scripts/check.sh -sim

# fuzz-smoke runs every native fuzz target for 30 s from the committed
# seed corpora (testdata/fuzz/): wsproto frame parsing, beacon payload
# codec, store WAL replay and snapshot reader, collector query API.
fuzz-smoke:
	sh scripts/check.sh -fuzz-smoke

clean:
	$(GO) clean ./...
