#!/bin/sh
# check.sh — the repo's CI gate. Builds everything, vets everything,
# refuses unformatted files, runs the full test suite, and re-runs the
# concurrency-sensitive packages (the three daemons and their shell,
# collector, wsproto, store, telemetry, ...) under the race detector. Usage:
#
#   scripts/check.sh                # vet + tests + race
#   scripts/check.sh -bench         # also run the telemetry-overhead benchmarks
#   scripts/check.sh -chaos         # also run the fault-injection suite under -race
#   scripts/check.sh -bench-compare # also run the perf gate (cmd/benchgate: 16 benchmarks, 5 BENCH_*.json)
#   scripts/check.sh -sim           # also run the simulation sweep (25 seeds, -race)
#                                   # plus the trace-digest determinism gate and
#                                   # 20 runs of the virtual-clock gateway wire schedules
#   scripts/check.sh -adversarial   # also run the adversarial scenario pack under -race
#                                   # (attack oracles, detector-disable gates, stream parity)
#   scripts/check.sh -sharded       # also run the sharded-collector suite under -race
#                                   # (shard-merge equality, router chaos, sharded sim oracle)
#   scripts/check.sh -fuzz-smoke    # also fuzz every target 30s from the committed corpora
#   scripts/check.sh -benchmark     # also run the end-to-end benchmark's smoke test
#                                   # (nested module benchmark/, outside ./...)
set -eu
cd "$(dirname "$0")/.."

RACE_PKGS="./cmd/auditd/ ./cmd/adedge/ ./internal/daemon/ ./internal/collector/ ./internal/ipmeta/ ./internal/wsproto/ ./internal/store/ ./internal/telemetry/ ./internal/memnet/ ./internal/beacon/ ./internal/semsim/ ./internal/audit/ ./internal/adnet/ ./internal/simclock/ ./internal/simtest/ ./internal/streamaudit/ ./internal/trace/ ./internal/logutil/ ./internal/edge/ ./internal/gen2/ ./internal/gateway/ ./internal/trunk/ ./internal/router/ ./internal/shardmerge/ ./internal/tiertest/ ./internal/collector/collectortest/"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# The end-to-end benchmark is a nested module outside ./... that
# compiles against internal/: vetting it here makes deleting a name it
# uses fail this gate, not only the -benchmark job.
echo "==> go vet -C benchmark ."
go vet -C benchmark .

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt -l . lists:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

echo "==> go test -race $RACE_PKGS"
go test -race $RACE_PKGS

# The parallel audit engine's end-to-end determinism gate: serial vs
# fanned-out FullAudit on the seeded paper workload, under the race
# detector (-short trims repetitions to keep the gate fast).
echo "==> go test -race -run TestFullAuditParallelMatchesSerial -short ."
go test -race -run TestFullAuditParallelMatchesSerial -short .

# FullAudit's error is as deterministic as its report: with two failing
# tasks the one lowest in task order wins at every pool size. This used
# to be a scheduling race (3 failures in 15 runs under -race).
echo "==> go test -race -count=50 -run TestFullAuditErrorPropagates ./internal/audit/"
go test -race -count=50 -run TestFullAuditErrorPropagates ./internal/audit/

# A live engine keeps each campaign's resolved publisher view between
# reports: the report's resolve tasks extend those views side by side
# (one task per campaign, never two on one view) while applies wait.
echo "==> go test -race -count=20 -run 'TestKeptView|TestEngineReportParallelUnderApply' ./internal/streamaudit/"
go test -race -count=20 -run 'TestKeptView|TestEngineReportParallelUnderApply' ./internal/streamaudit/

if [ "${1:-}" = "-bench" ]; then
    echo "==> telemetry overhead: BenchmarkCollectorIngest vs Uninstrumented"
    go test -run '^$' -bench 'BenchmarkCollectorIngest' -benchmem -count 3 \
        ./internal/collector/
fi

if [ "${1:-}" = "-chaos" ]; then
    # The chaos campaign needs real time for kills and reconnects, so it
    # skips itself under -short; this is the explicit full-fat run.
    echo "==> chaos suite (fault injection + WAL crash recovery, -race)"
    go test -race -count=5 ./internal/memnet/
    # The chaos tests: a beacon fleet through faulted memnet listeners —
    # at a collector, at a gateway and its collector (restarted mid-run
    # on the same address), at a router with a shard restarted — and
    # the seeded wire schedules. No kernel port to re-bind, so five runs.
    go test -race -count=5 -run 'TestChaos|TestSimWire$' \
        ./internal/collector/ ./internal/gateway/ ./internal/router/ ./internal/simtest/
    go test -race -count 1 -run 'TestReportReconnects|TestWAL' \
        ./internal/beacon/ ./internal/store/ -v
    go test -race -count=20 -run 'TestConcurrentReplaysOfOneNonce|TestNonceIndexHasNoWindow|TestEdgeReplayToRestartedCollectorCountsOnce|TestReplayRacingAnUnsyncedCommitGetsItsError|TestReadersWhileDictionariesGrow|TestGatewayReplayAfterLostAckCountsOnce|TestGatewayReplayWhileRouterHoldsItCountsOnce|TestRelayRefusesNonceLessCommit|TestRelayDuringShardOutageHoldsNothing|TestRelayReturnPathIsBounded|TestGatewayReplayRerunCountsOnce|TestConversionsSurviveConcurrentSnapshotCompact' ./internal/collector/ ./internal/store/ ./internal/router/ ./cmd/adsim/
    # The wire's pooled read buffers: a rejected dial keeps its reader,
    # and a reader racing Close never hands another connection its bytes.
    go test -race -count=20 -run 'TestRejectedDialKeepsItsReader|TestPooledReadersUnderConcurrentSessions' ./internal/wsproto/
    # The forwarding core's own outage tests (outage replay, spill shed,
    # ladder) live in internal/edge;
    # the front-door behaviours every tier shares (refusals, sheds,
    # drains, panics, a faulted listener) are internal/tiertest's rows,
    # run by each tier package's old-named tests and its
    # TestConformanceCatchesMutants — the edge's among them below.
    echo "==> edge tier (-race)"
    go test -race -count 1 ./internal/edge/
fi

if [ "${1:-}" = "-bench-compare" ]; then
    go run ./cmd/benchgate
fi

if [ "${1:-}" = "-sim" ]; then
    # Deterministic simulation sweep: 25 seeded schedules through the
    # full ingest -> store -> audit pipeline under -race, with the
    # invariant oracle watching (internal/simtest). A failure prints a
    # one-line reproducer: go test ./internal/simtest -run TestSim -seed=<n>
    echo "==> simulation sweep (25 seeds, -race)"
    DIGESTS=$(mktemp -d)
    trap 'rm -rf "$DIGESTS"' EXIT
    go test -race -count 1 ./internal/simtest/ \
        -run 'TestSim$' -seeds=25 -digest-out="$DIGESTS/run1"

    # Determinism gate: the same 25 seeds replayed without -race must
    # produce byte-identical trace digests — the property that makes
    # every reproducer seed trustworthy.
    echo "==> trace-digest determinism gate (25 seeds, two runs)"
    go test -count 1 ./internal/simtest/ \
        -run 'TestSim$' -seeds=25 -digest-out="$DIGESTS/run2" >/dev/null
    if ! cmp -s "$DIGESTS/run1" "$DIGESTS/run2"; then
        echo "FAIL: trace digests differ between identical runs" >&2
        diff "$DIGESTS/run1" "$DIGESTS/run2" >&2 || true
        exit 1
    fi

    # The gateway wire schedules: fleet -> faulted in-memory network ->
    # gateway -> trunk -> a collector killed and WAL-recovered mid-run,
    # all on one virtual clock (and the mutant the oracle must catch).
    echo "==> gateway wire schedules on the virtual clock (20 runs, -race)"
    go test -race -count=20 -run TestSimGatewayWire ./internal/simtest/
fi

if [ "${1:-}" = "-adversarial" ]; then
    # The adversarial scenario pack: seeded attack schedules with
    # oracle-backed precision/recall checks (the recall side must fail
    # when a detector is disabled — TestSimAdversarialDisabledDetector
    # proves the invariants have teeth), the streaming engine's
    # deep-equal parity on adversarial workloads, the adversary layer's
    # ground-truth unit tests, and the adsim CLI scenario run.
    echo "==> adversarial scenario pack (-race)"
    go test -race -count 1 -run 'TestSimAdversarial' ./internal/simtest/
    go test -race -count 1 -run 'TestAdversarialDimensionsParity' ./internal/streamaudit/
    go test -race -count 1 -run 'TestAdversary|TestHonestReportSellers' ./internal/adnet/
    go test -race -count 1 \
        -run 'TestCadenceCV|TestSellerAudit|TestPoolingFromReport|TestBehaviorFold|TestPoolingFold|TestFoldsMatchOraclesOnAdversaryPresets' \
        ./internal/audit/
    go test -race -count 1 -run 'TestRunAdversarialScenario' ./cmd/adsim/
fi

if [ "${1:-}" = "-sharded" ]; then
    # The sharded collector tier: the shard-merge union must reproduce
    # the single-store batch audit byte-for-byte (2/4/8 shards plus an
    # adversarial workload), the router must survive a shard being
    # killed and WAL-recovered mid-run with zero loss by nonce, the sim
    # oracle must hold the same equality over post-hoc partitions
    # without perturbing trace digests, and the adsim -shards replay
    # must pass its in-process placement + merge verdicts.
    echo "==> sharded collector suite (-race)"
    go test -race -count 1 ./internal/shardmerge/ -v
    go test -race -count 1 ./internal/router/ ./internal/edge/ -v
    go test -race -count 1 -run 'TestSimSharded|TestShardsDigestDeterminism' \
        ./internal/simtest/ -v
    go test -race -count 1 -run 'TestRunShardedReplay' ./cmd/adsim/ -v
fi

if [ "${1:-}" = "-benchmark" ]; then
    # The end-to-end benchmark (BENCHMARK.json, benchmark/) is a module
    # of its own, so `go test ./...` above never builds it. Its smoke
    # test runs every workload for 1 s on a small universe with every
    # correctness check on (exactly-once by nonce, live/merged/batch
    # reports DeepEqual), so a change that breaks the harness fails
    # here rather than when the numbers are wanted.
    echo "==> benchmark smoke test (go test -C benchmark .)"
    go test -C benchmark -count 1 .
fi

if [ "${1:-}" = "-fuzz-smoke" ]; then
    # 30 s of native fuzzing per target, seeded from the committed
    # corpora under testdata/fuzz/ — any crasher fails the stage. Every
    # func Fuzz… in the tree is listed (TestFuzzSmokeListsEveryTarget).
    echo "==> fuzz smoke (30s per target)"
    for target in \
        "FuzzReadFrame ./internal/wsproto/" \
        "FuzzDialResponse ./internal/wsproto/" \
        "FuzzUpgradeRequest ./internal/wsproto/" \
        "FuzzDecodeClosePayload ./internal/wsproto/" \
        "FuzzDecode ./internal/beacon/" \
        "FuzzDecodeEventUpdate ./internal/beacon/" \
        "FuzzDecodeConversion ./internal/beacon/" \
        "FuzzDecodeBinary ./internal/beacon/" \
        "FuzzWireEquivalence ./internal/beacon/" \
        "FuzzPlainHost ./internal/beacon/" \
        "FuzzDecodeBatch ./internal/trunk/" \
        "FuzzReader ./internal/bytecodec/" \
        "FuzzExportRoundTrip ./internal/shardmerge/" \
        "FuzzStateBinary ./internal/audit/" \
        "FuzzRecoverWAL ./internal/store/" \
        "FuzzReadSnapshot ./internal/store/" \
        "FuzzWALEntry ./internal/store/" \
        "FuzzQueryAPI ./internal/collector/"; do
        set -- $target
        echo "==> go test -fuzz $1 -fuzztime 30s $2"
        go test -run '^$' -fuzz "$1\$" -fuzztime 30s "$2"
    done
fi

echo "==> ok"
