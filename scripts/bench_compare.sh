#!/bin/sh
# bench_compare.sh — the audit-engine performance gate. Runs the
# serial/parallel FullAudit benchmarks and the streaming engine's
# report (BenchmarkLiveReport) plus the allocation-sensitive Table 2
# context benchmark, summarises them benchstat-style (mean over
# -count runs) into BENCH_audit.json, and fails if BenchmarkTable2Context
# costs more than 70 allocs/op, either FullAudit benchmark more than
# 10,000, or the live report more than 1,000. Plain POSIX sh + awk — no
# benchstat dependency.
#
# Also runs the streaming-audit apply benchmark
# (internal/streamaudit.BenchmarkStreamApply) and summarises it into
# BENCH_stream.json — per-delta apply cost and derived deltas/sec for
# the incremental engine — beside BenchmarkExportRoundTrip, one shard's
# export marshalled and unmarshalled, gated at 600 allocs/op.
#
# Also runs the impression-tracing overhead gate: the ingest funnel
# with a tracer attached but no sampled payloads (BenchmarkIngestUntraced)
# must stay within 5% of the tracer-less funnel
# (BenchmarkCollectorIngestUninstrumented); the fully traced funnel
# (BenchmarkIngestTraced) is recorded alongside. Summary lands in
# BENCH_trace.json.
#
# Usage:
#   scripts/bench_compare.sh            # run, compare, rewrite BENCH_audit.json + BENCH_stream.json
#   COUNT=5 scripts/bench_compare.sh    # more repetitions
#
# The raw `go test -bench` output is appended to bench_output.txt so the
# repo keeps a human-readable record alongside the JSON.
set -eu
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
# Every BENCH_*.json records gomaxprocs (parsed off the benchmark name
# suffix go test emits) and the machine's cpu count, so numbers from
# different containers are comparable. The FullAudit parallel-speedup
# gate is only meaningful on multi-core hardware: on 1 core the gate
# FAILS (a 1-core "speedup" is noise, not a measurement) unless
# ALLOW_SINGLE_CORE=1, which records the speedup as invalid instead.
CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
JSON=BENCH_audit.json
RAW=bench_output.txt
BENCHES='BenchmarkFullAuditSerial$|BenchmarkFullAuditParallel$|BenchmarkLiveReport$|BenchmarkTable2Context$'

# allocs_of NAME FILE prints NAME's allocs_per_op from a BENCH_*.json.
allocs_of() {
    sed -n 's/.*"name": "'"$1"'",.*"allocs_per_op": \([0-9][0-9]*\).*/\1/p' "$2"
}

# ceiling NAME FILE LIMIT fails the gate when NAME is missing from FILE
# or costs more than LIMIT allocs/op. Absolute, like the FullAudit
# budget: a baseline rewritten on every run cannot hold a line.
ceiling() {
    got=$(allocs_of "$1" "$2")
    if [ -z "$got" ]; then
        echo "bench_compare: $1 missing from $2" >&2
        exit 1
    fi
    echo "==> $1: $got allocs/op (ceiling <= $3)"
    if [ "$got" -gt "$3" ]; then
        echo "bench_compare: $1 costs $got allocs/op, ceiling is $3" >&2
        exit 1
    fi
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "==> go test -bench ($COUNT runs each: FullAuditSerial, FullAuditParallel, LiveReport, Table2Context)"
go test -run '^$' -bench "$BENCHES" -benchmem -count "$COUNT" . | tee "$tmp"

{
    echo "# bench_compare $(go env GOOS)/$(go env GOARCH), GOMAXPROCS from go test, count=$COUNT"
    grep '^Benchmark' "$tmp"
} >> "$RAW"

# Summarise: mean ns/op, B/op, allocs/op per benchmark (suffix -N
# stripped), preserving input order.
awk -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    gmp = 1
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1) + 0 }
    if (gmp > gomaxprocs) { gomaxprocs = gmp }
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")     { ns[name] += $i;     runs[name]++ }
        if (unit == "B/op")      { bytes[name] += $i }
        if (unit == "allocs/op") { allocs[name] += $i }
    }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        r = runs[name]; if (r == 0) continue
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, r, ns[name] / r, bytes[name] / r, allocs[name] / r, (k < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"gomaxprocs\": %d,\n  \"cpus\": %d,\n", gomaxprocs, cpus
    serial = ns["BenchmarkFullAuditSerial"] / runs["BenchmarkFullAuditSerial"]
    par = ns["BenchmarkFullAuditParallel"] / runs["BenchmarkFullAuditParallel"]
    printf "  \"parallel_speedup\": %.3f,\n", serial / par
    printf "  \"parallel_speedup_valid\": %s\n}\n", (gomaxprocs >= 2 ? "true" : "false")
}' "$tmp" > "$JSON"

# The multi-core gate: the ROADMAP targets >=3x FullAudit speedup on 4
# cores. A 1-core container cannot measure a speedup at all, so the
# honest outcomes are: fail loudly (default), or record the number as
# invalid (ALLOW_SINGLE_CORE=1) so no trajectory mistakes it for data.
gmp=$(sed -n 's/.*"gomaxprocs": \([0-9][0-9]*\).*/\1/p' "$JSON" | head -n 1)
speedup=$(sed -n 's/.*"parallel_speedup": \([0-9.]*\).*/\1/p' "$JSON")
if [ "$gmp" -lt 2 ]; then
    if [ "${ALLOW_SINGLE_CORE:-0}" = "1" ]; then
        echo "==> WARNING: 1-core run; parallel_speedup ${speedup}x recorded as INVALID (>=3x gate needs >=4 cores)"
    else
        echo "bench_compare: parallel_speedup computed on 1 core ($speedup x) is not a measurement; rerun on >=4 cores or set ALLOW_SINGLE_CORE=1" >&2
        exit 1
    fi
elif [ "$gmp" -ge 4 ]; then
    echo "==> FullAudit parallel speedup: ${speedup}x on $gmp procs (target >= 3.0)"
    awk -v s="$speedup" 'BEGIN {
        if (s < 3.0) {
            printf "bench_compare: parallel speedup %.3fx below the 3x-on-4-cores target\n", s
            exit 1
        }
    }' || exit 1
else
    echo "==> FullAudit parallel speedup: ${speedup}x on $gmp procs (3x target is defined at >= 4 cores; not gated)"
fi

echo "==> wrote $JSON"

# Table 2's context audit, 8 campaigns: 7 allocs/op warm — the results;
# states, views, compiled queries and scratch are pooled — and 20-30 when
# a collection empties the pools mid-run, which a 10% line against
# whichever of the two the last run happened to record cannot tell from
# a regression. The ceiling is what that line allowed when the
# benchmark cost 63; one allocation per campaign more is 8, per
# publisher 36,000.
ceiling BenchmarkTable2Context "$JSON" 70

# FullAudit allocation budget: an absolute <= 10,000 allocs/op on both
# engines (ROADMAP item 1), not a relative baseline — the adversarial
# dimensions once took it from 3,753 to 361,180 unnoticed, which a
# baseline that is rewritten on every run cannot catch.
for bench in BenchmarkFullAuditSerial BenchmarkFullAuditParallel; do
    ceiling "$bench" "$JSON" 10000
done

# The live report is the same folds over states the engine already
# holds, on the same pool: 415 allocs/op, per result slice and per pool
# worker; one allocation per publisher or user would be 36,000 more.
ceiling BenchmarkLiveReport "$JSON" 1000

# Streaming-audit apply throughput: mean per-delta cost of the
# incremental engine, and the deltas/sec it implies.
STREAM_JSON=BENCH_stream.json
stream_tmp=$(mktemp)
trap 'rm -f "$tmp" "$stream_tmp"' EXIT

echo "==> go test -bench BenchmarkStreamApply|ExportRoundTrip ($COUNT runs) ./internal/streamaudit/"
go test -run '^$' -bench 'Benchmark(StreamApply|ExportRoundTrip)$' -benchmem -count "$COUNT" \
    ./internal/streamaudit/ | tee "$stream_tmp"

{
    echo "# bench_compare(stream) $(go env GOOS)/$(go env GOARCH), count=$COUNT"
    grep '^Benchmark' "$stream_tmp"
} >> "$RAW"

awk -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    gmp = 1
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1) + 0 }
    if (gmp > gomaxprocs) { gomaxprocs = gmp }
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")     { ns[name] += $i;     runs[name]++ }
        if (unit == "B/op")      { bytes[name] += $i }
        if (unit == "allocs/op") { allocs[name] += $i }
    }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        r = runs[name]; if (r == 0) continue
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, r, ns[name] / r, bytes[name] / r, allocs[name] / r, (k < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"gomaxprocs\": %d,\n  \"cpus\": %d,\n", gomaxprocs, cpus
    apply = ns["BenchmarkStreamApply"] / runs["BenchmarkStreamApply"]
    printf "  \"deltas_per_sec\": %.0f\n}\n", 1e9 / apply
}' "$stream_tmp" > "$STREAM_JSON"

echo "==> wrote $STREAM_JSON"

if ! grep -q '"name": "BenchmarkStreamApply"' "$STREAM_JSON"; then
    echo "bench_compare: BenchmarkStreamApply missing from results" >&2
    exit 1
fi

# Impression-tracing overhead: an attached-but-idle tracer must cost
# the unsampled ingest path (near) nothing.
TRACE_JSON=BENCH_trace.json
trace_tmp=$(mktemp)
trap 'rm -f "$tmp" "$stream_tmp" "$trace_tmp"' EXIT

echo "==> go test -bench trace overhead ($COUNT runs: IngestUninstrumented, IngestUntraced, IngestTraced) ./internal/collector/"
go test -run '^$' \
    -bench 'BenchmarkCollectorIngestUninstrumented$|BenchmarkIngestUntraced$|BenchmarkIngestTraced$' \
    -benchmem -count "$COUNT" ./internal/collector/ | tee "$trace_tmp"

{
    echo "# bench_compare(trace) $(go env GOOS)/$(go env GOARCH), count=$COUNT"
    grep '^Benchmark' "$trace_tmp"
} >> "$RAW"

awk -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    gmp = 1
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1) + 0 }
    if (gmp > gomaxprocs) { gomaxprocs = gmp }
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")     { ns[name] += $i;     runs[name]++ }
        if (unit == "B/op")      { bytes[name] += $i }
        if (unit == "allocs/op") { allocs[name] += $i }
    }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        r = runs[name]; if (r == 0) continue
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, r, ns[name] / r, bytes[name] / r, allocs[name] / r, (k < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"gomaxprocs\": %d,\n  \"cpus\": %d,\n", gomaxprocs, cpus
    base = ns["BenchmarkCollectorIngestUninstrumented"] / runs["BenchmarkCollectorIngestUninstrumented"]
    untraced = ns["BenchmarkIngestUntraced"] / runs["BenchmarkIngestUntraced"]
    printf "  \"untraced_overhead\": %.3f\n}\n", untraced / base
}' "$trace_tmp" > "$TRACE_JSON"

echo "==> wrote $TRACE_JSON"

overhead=$(sed -n 's/.*"untraced_overhead": \([0-9.]*\).*/\1/p' "$TRACE_JSON")
if [ -z "$overhead" ]; then
    echo "bench_compare: trace benchmarks missing from results" >&2
    exit 1
fi
echo "==> untraced ingest overhead vs tracer-less funnel: ${overhead}x (budget 1.05)"
awk -v r="$overhead" 'BEGIN {
    if (r > 1.05) {
        printf "bench_compare: untraced tracing overhead %.3fx exceeds the 5%% budget\n", r
        exit 1
    }
}' || exit 1

# Edge gateway forwarding vs the direct ingest path: the gateway hop
# is allowed to cost whatever the extra network leg costs, but adding
# the gateway tier must not make the direct (no-gateway) path itself
# more expensive. The gate is on allocs/op of BenchmarkIngest — the
# direct funnel — against the committed BENCH_gateway.json baseline;
# allocation counts are stable across machines where ns/op is not.
GW_JSON=BENCH_gateway.json
gw_tmp=$(mktemp)
trap 'rm -f "$tmp" "$stream_tmp" "$trace_tmp" "$gw_tmp"' EXIT

baseline_direct=""
if [ -f "$GW_JSON" ]; then
    baseline_direct=$(allocs_of BenchmarkIngest "$GW_JSON")
fi

echo "==> go test -bench BenchmarkGatewayForward ($COUNT runs) ./internal/gateway/"
go test -run '^$' -bench 'BenchmarkGatewayForward$' -benchmem -count "$COUNT" \
    ./internal/gateway/ 2>/dev/null | grep -E '^Benchmark|^PASS|^ok' | tee "$gw_tmp"
echo "==> go test -bench direct path ($COUNT runs: Ingest, IngestBinary, WebSocketSession) ./internal/collector/"
go test -run '^$' -bench 'BenchmarkIngest$|BenchmarkIngestBinary$|BenchmarkWebSocketSession$' -benchmem -count "$COUNT" \
    ./internal/collector/ | tee -a "$gw_tmp"
# The journaled path at a fixed iteration count — the paper dataset's
# size: its allocs/op include first-touch misses (a new address, a new
# user), whose share depends on how long the run is.
echo "==> go test -bench BenchmarkIngestJournaled ($COUNT runs of 130000) ./internal/collector/"
go test -run '^$' -bench 'BenchmarkIngestJournaled$' -benchmem -benchtime 130000x -count "$COUNT" \
    ./internal/collector/ | tee -a "$gw_tmp"
# The store's share of that commit, at the same length: records built
# outside the timer, every row a user no earlier row had.
echo "==> go test -bench BenchmarkInsert ($COUNT runs of 130000) ./internal/store/"
go test -run '^$' -bench 'BenchmarkInsert$' -benchmem -benchtime 130000x -count "$COUNT" \
    ./internal/store/ | tee -a "$gw_tmp"

{
    echo "# bench_compare(gateway) $(go env GOOS)/$(go env GOARCH), count=$COUNT"
    grep '^Benchmark' "$gw_tmp"
} >> "$RAW"

awk -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    gmp = 1
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1) + 0 }
    if (gmp > gomaxprocs) { gomaxprocs = gmp }
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")     { ns[name] += $i;     runs[name]++ }
        if (unit == "B/op")      { bytes[name] += $i }
        if (unit == "allocs/op") { allocs[name] += $i }
    }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        r = runs[name]; if (r == 0) continue
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, r, ns[name] / r, bytes[name] / r, allocs[name] / r, (k < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"gomaxprocs\": %d,\n  \"cpus\": %d,\n", gomaxprocs, cpus
    fwd = ns["BenchmarkGatewayForward"] / runs["BenchmarkGatewayForward"]
    direct = ns["BenchmarkWebSocketSession"] / runs["BenchmarkWebSocketSession"]
    printf "  \"gateway_hop_overhead\": %.3f\n}\n", fwd / direct
}' "$gw_tmp" > "$GW_JSON"

echo "==> wrote $GW_JSON"

new_direct=$(allocs_of BenchmarkIngest "$GW_JSON")
if [ -z "$new_direct" ]; then
    echo "bench_compare: BenchmarkIngest missing from gateway comparison results" >&2
    exit 1
fi

# Binary wire path: steady-state budget is an absolute <= 1 alloc/op
# (the amortised store append), not a relative baseline — the whole
# point of the pooled decode + intern path.
ceiling BenchmarkIngestBinary "$GW_JSON" 1
# The same path as production pays for it — journal attached, a fresh
# nonce and page URL, 36,000 addresses: 1.85 allocs per impression
# (reported truncated, 1), every one of them a string the record keeps;
# 9 before the commit path diet, 2.65 while the store still kept a
# posting list per publisher and per user (DESIGN §13). The ceiling is
# the measurement: a journal line through encoding/json again is +4, a
# url.Parse +1.5, a channel per claim or an index entry per user +1.
ceiling BenchmarkIngestJournaled "$GW_JSON" 1
# The store's own insert allocates only what amortises away — a log
# chunk per 1,024 rows, a posting list doubling: 0. Anything kept per
# user or per publisher reads 1.
ceiling BenchmarkInsert "$GW_JSON" 0

# One beacon session, direct and through a forwarding tier: what
# wsproto, the beacon client and the collector add on top of net
# (DESIGN §16). 203 and 289 before the wire-session diet, 104 and 145
# after it, 62 and 102 since the accepting front answers the upgrade
# in place of net/http, 60 and 98 since the commit behind the session
# stopped allocating its journal line, 60 and 84 since the trunk carries
# only commits; the ceilings (the measurement + 10 %) leave room for the
# runtime to move, not for a request object, a formatted error, a second
# write per frame or a frame per event to come back.
ceiling BenchmarkWebSocketSession "$GW_JSON" 70
ceiling BenchmarkGatewayForward "$GW_JSON" 92
# One shard's export there and back (3 campaigns, 8,000 users): 398,
# per table, column and thousand map entries; one allocation per key
# would be 8,000 more.
ceiling BenchmarkExportRoundTrip "$STREAM_JSON" 600

if [ -n "$baseline_direct" ]; then
    echo "==> direct ingest allocs/op: baseline $baseline_direct, now $new_direct (budget 5%)"
    awk -v old="$baseline_direct" -v cur="$new_direct" 'BEGIN {
        if (old > 0 && cur > old * 1.05) {
            printf "bench_compare: direct ingest path regressed: %.0f -> %.0f allocs/op (> 5%%)\n", old, cur
            exit 1
        }
    }' || exit 1
else
    echo "==> no committed direct-path baseline; $GW_JSON is the new baseline"
fi

# Router forwarding vs the direct ingest path: one full beacon session
# through the sharded front tier (router trunk hop included) against
# the same session straight into a collector. The hop is expected to
# cost a network leg; what is gated is the router's own allocation
# footprint — allocs/op of BenchmarkRouterForward against the committed
# BENCH_router.json baseline, 10% budget: allocation counts are stable
# across machines where ns/op is not. The direct-path divisor is reused from the
# gateway section's run above rather than re-measured.
RT_JSON=BENCH_router.json
rt_tmp=$(mktemp)
trap 'rm -f "$tmp" "$stream_tmp" "$trace_tmp" "$gw_tmp" "$rt_tmp"' EXIT

baseline_router=""
if [ -f "$RT_JSON" ]; then
    baseline_router=$(allocs_of BenchmarkRouterForward "$RT_JSON")
fi

echo "==> go test -bench BenchmarkRouterForward ($COUNT runs) ./internal/router/"
go test -run '^$' -bench 'BenchmarkRouterForward$' -benchmem -count "$COUNT" \
    ./internal/router/ 2>/dev/null | grep -E '^Benchmark|^PASS|^ok' | tee "$rt_tmp"
grep '^BenchmarkWebSocketSession' "$gw_tmp" >> "$rt_tmp"

{
    echo "# bench_compare(router) $(go env GOOS)/$(go env GOARCH), count=$COUNT"
    grep '^Benchmark' "$rt_tmp"
} >> "$RAW"

awk -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    gmp = 1
    if (match(name, /-[0-9]+$/)) { gmp = substr(name, RSTART + 1) + 0 }
    if (gmp > gomaxprocs) { gomaxprocs = gmp }
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "ns/op")     { ns[name] += $i;     runs[name]++ }
        if (unit == "B/op")      { bytes[name] += $i }
        if (unit == "allocs/op") { allocs[name] += $i }
    }
}
END {
    printf "{\n  \"benchmarks\": [\n"
    for (k = 1; k <= n; k++) {
        name = order[k]
        r = runs[name]; if (r == 0) continue
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            name, r, ns[name] / r, bytes[name] / r, allocs[name] / r, (k < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"gomaxprocs\": %d,\n  \"cpus\": %d,\n", gomaxprocs, cpus
    fwd = ns["BenchmarkRouterForward"] / runs["BenchmarkRouterForward"]
    direct = ns["BenchmarkWebSocketSession"] / runs["BenchmarkWebSocketSession"]
    printf "  \"router_hop_overhead\": %.3f\n}\n", fwd / direct
}' "$rt_tmp" > "$RT_JSON"

echo "==> wrote $RT_JSON"

ceiling BenchmarkRouterForward "$RT_JSON" 92
new_router=$(allocs_of BenchmarkRouterForward "$RT_JSON")
if ! grep -q '"name": "BenchmarkWebSocketSession"' "$RT_JSON"; then
    echo "bench_compare: BenchmarkWebSocketSession missing from router comparison results" >&2
    exit 1
fi

if [ -n "$baseline_router" ]; then
    echo "==> router forward allocs/op: baseline $baseline_router, now $new_router (budget 10%)"
    awk -v old="$baseline_router" -v cur="$new_router" 'BEGIN {
        if (old > 0 && cur > old * 1.10) {
            printf "bench_compare: router forward path regressed: %.0f -> %.0f allocs/op (> 10%%)\n", old, cur
            exit 1
        }
    }' || exit 1
else
    echo "==> no committed router baseline; $RT_JSON is the new baseline"
fi

echo "==> bench-compare ok"
