// Command benchgate is the repo's performance gate: `go run ./cmd/benchgate
// [-count 3]` from the module root (= `make bench-compare`) runs every
// micro-benchmark in the table below, writes the mean of -count runs into the
// five BENCH_*.json ledgers, and exits non-zero when one costs more allocs/op
// than its row allows or one of the two time ratios is out of bounds. The table
// is where a ceiling lives: to move one, edit its row and its why. Ceilings are
// absolute counts, stable across machines where ns/op is not; no check reads a
// committed file, because a baseline the same run rewrites holds no line.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// row is one gated benchmark: the BENCH_<ledger>.json it is recorded in,
// its package directory, its -benchtime (go test's default, or the paper
// dataset's size where allocs/op include first-touch misses, a new user
// or address, and so depend on run length) and the most allocs/op it may
// cost, with the reason for that number.
type row struct {
	ledger, pkg, bench, benchtime string
	ceiling                       float64
	why                           string
}

var table = []row{
	{"audit", ".", "BenchmarkTable2Context", "1s", 70, "8 campaigns: 7 warm (the results; the rest is pooled), 20–40 when a collection empties the pools; +1 per campaign is 8, per publisher 36,000"},
	{"audit", ".", "BenchmarkFullAuditSerial", "1s", 800, "442–545 committed, more when a collection empties the state pools: 1.5 × the highest; +1 per publisher of one campaign in one fold is thousands"},
	{"audit", ".", "BenchmarkFullAuditParallel", "1s", 800, "as FullAuditSerial (434–445 committed): the same folds on the worker pool"},
	{"audit", ".", "BenchmarkLiveReport", "1s", 600, "the same folds over states the engine holds: 415–442 committed, per result slice and pool worker; +1 per publisher or user is 36,000"},

	{"stream", "./internal/streamaudit", "BenchmarkStreamApply", "1s", 1, "one delta into a warm state: 0; its B/op, 140–165 as b.N varies, is the campaign columns' amortised growth (201–235 while a record-id map grew beside them); anything allocated per delta reads 1"},
	{"stream", "./internal/streamaudit", "BenchmarkExportRoundTrip", "1s", 500, "one shard's export encoded, served and decoded (3 campaigns, 8,000 users): 356–359, per table, column and thousand map entries (399 with the JSON envelope and a deep copy, not counting the export); +1 per key is 8,000"},

	{"trace", "./internal/collector", "BenchmarkCollectorIngestUninstrumented", "1s", 3, "the text funnel without telemetry: 3, the strings the record keeps; the divisor of untraced_overhead"},
	{"trace", "./internal/collector", "BenchmarkIngestUntraced", "1s", 3, "a tracer attached, nothing sampled: the same 3 — an idle tracer allocates nothing"},
	{"trace", "./internal/collector", "BenchmarkIngestTraced", "1s", 12, "every payload sampled: 7, the trace and its stages on the funnel's 3; room for the recorder's ring, not for +1 per stage (8 stages)"},

	{"gateway", "./internal/gateway", "BenchmarkGatewayForward", "1s", 72, "one session through the gateway and its trunk: 63–64 against 52 direct; 71 while the dialer made its own 4 KiB reader and the text payload went through url.Values, 84 while the commit carried a text payload the collector re-parsed, 102 with a frame per event beside it"},
	{"gateway", "./internal/collector", "BenchmarkIngest", "1s", 3, "the direct text funnel, telemetry on: 3; adding a tier must not make the path without it dearer"},
	{"gateway", "./internal/collector", "BenchmarkWebSocketSession", "1s", 58, "one session straight into a collector: 52 (+10 %), the read buffer pooled on both ends and the text payload scanned in place; 59 with a reader per dial and url.Values, 203 before the wire diet; no room for a request object or a formatted error"},
	{"gateway", "./internal/collector", "BenchmarkIngestBinary", "1s", 1, "the binary wire path warm: the amortised store append and nothing else"},
	{"gateway", "./internal/collector", "BenchmarkIngestJournaled", "130000x", 1, "the production commit (journal, fresh nonce and URL, 36,000 addresses): 1.85, printed truncated; an error on the row encoder that formats the row moves it to the heap, +1; url.Parse +1.5"},
	{"gateway", "./internal/store", "BenchmarkInsert", "130000x", 0, "only what amortises away (a log chunk per 1,024 rows, a posting list doubling, a column dictionary growing to its distinct values); anything kept per user or per publisher reads 1"},

	{"router", "./internal/router", "BenchmarkRouterForward", "1s", 72, "one session through the router to one shard: 63–64, the gateway's hop plus the nonce hash; 71 with a reader per dial and url.Values, 84 with a text commit"},
	{"router", "./internal/collector", "BenchmarkWebSocketSession", "1s", 58, "the direct session the router's row is read against; measured once, recorded in both ledgers"},
}

var ledgers = []string{"audit", "stream", "trace", "gateway", "router"}

// The two gates that are not counts.
const (
	maxUntracedOverhead = 1.05 // IngestUntraced ns / CollectorIngestUninstrumented ns
	minParallelSpeedup  = 3.0  // FullAuditSerial ns / FullAuditParallel ns ...
	speedupProcs        = 4    // ... evaluated from this many procs up
)

// result is one benchmark's figures, the mean over its runs.
type result struct {
	runs              int
	ns, bytes, allocs float64
}

// parse reads one `go test -bench -benchmem` output: each benchmark's
// means, keyed by name without the -GOMAXPROCS suffix, and the largest
// suffix seen (1 when there is none). Custom metrics are skipped.
func parse(out []byte) (map[string]result, int) {
	got, procs := map[string]result{}, 1
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], max(procs, n)
			}
		}
		r := got[name]
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				r.ns += v
				r.runs++
			case "B/op":
				r.bytes += v
			case "allocs/op":
				r.allocs += v
			}
		}
		got[name] = r
	}
	for name, r := range got {
		n := float64(max(r.runs, 1))
		got[name] = result{r.runs, r.ns / n, r.bytes / n, r.allocs / n}
	}
	return got, procs
}

// measure runs the table, one `go test` per (package, benchtime).
func measure(count int) (map[string]result, int, error) {
	type group struct{ pkg, benchtime string }
	var order []group
	names := map[group][]string{}
	for _, r := range table {
		g := group{r.pkg, r.benchtime}
		if names[g] == nil {
			order = append(order, g)
		}
		names[g] = append(names[g], r.bench)
	}
	got, procs := map[string]result{}, 1
	for _, g := range order {
		args := []string{"test", "-run", "^$", "-bench", "^(" + strings.Join(names[g], "|") + ")$",
			"-benchmem", "-count", strconv.Itoa(count), "-benchtime", g.benchtime, g.pkg}
		fmt.Println("==> go", strings.Join(args, " "))
		var out bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, 0, fmt.Errorf("go test -bench in %s: %w", g.pkg, err)
		}
		part, p := parse(out.Bytes())
		maps.Copy(got, part)
		procs = max(procs, p)
	}
	return got, procs, nil
}

// ratio is num's mean ns/op over den's, 0 when either was not measured.
func ratio(got map[string]result, num, den string) float64 {
	if got[num].runs == 0 || got[den].runs == 0 {
		return 0
	}
	return got[num].ns / got[den].ns
}

// ledgerJSON renders one BENCH_*.json: the ledger's rows in table
// order, the hardware they were measured on, then its derived fields.
func ledgerJSON(ledger string, got map[string]result, procs, cpus int) string {
	var rows []string
	for _, r := range table {
		if m := got[r.bench]; r.ledger == ledger && m.runs > 0 {
			rows = append(rows, fmt.Sprintf(`    {"name": %q, "runs": %d, "ns_per_op": %.0f, "bytes_per_op": %.0f, "allocs_per_op": %.0f}`,
				r.bench, m.runs, m.ns, m.bytes, m.allocs))
		}
	}
	fields := []string{fmt.Sprintf(`"gomaxprocs": %d`, procs), fmt.Sprintf(`"cpus": %d`, cpus)}
	switch ledger {
	case "audit":
		fields = append(fields, fmt.Sprintf(`"parallel_speedup": %.3f`, ratio(got, "BenchmarkFullAuditSerial", "BenchmarkFullAuditParallel")),
			fmt.Sprintf(`"parallel_speedup_valid": %t`, procs >= 2))
	case "stream":
		if apply := got["BenchmarkStreamApply"]; apply.runs > 0 {
			fields = append(fields, fmt.Sprintf(`"deltas_per_sec": %.0f`, 1e9/apply.ns))
		}
	case "trace":
		fields = append(fields, fmt.Sprintf(`"untraced_overhead": %.3f`, ratio(got, "BenchmarkIngestUntraced", "BenchmarkCollectorIngestUninstrumented")))
	}
	return "{\n  \"benchmarks\": [\n" + strings.Join(rows, ",\n") + "\n  ],\n  " + strings.Join(fields, ",\n  ") + "\n}\n"
}

// judge prints one line per table row and per ratio and returns how
// many failed. Every row is reported, whatever failed before it.
func judge(got map[string]result, procs int, w io.Writer) (failed int) {
	verdict := func(ok bool, format string, args ...any) {
		mark := "ok  "
		if !ok {
			mark = "FAIL"
			failed++
		}
		fmt.Fprintf(w, mark+" "+format+"\n", args...)
	}
	for _, r := range table {
		m := got[r.bench]
		ok := m.runs > 0 && m.allocs <= r.ceiling
		verdict(ok, "%-38s %d runs %7.1f allocs/op, ceiling %g (BENCH_%s.json)", r.bench, m.runs, m.allocs, r.ceiling, r.ledger)
		if !ok {
			fmt.Fprintf(w, "     why %g: %s\n", r.ceiling, r.why)
		}
	}
	overhead := ratio(got, "BenchmarkIngestUntraced", "BenchmarkCollectorIngestUninstrumented")
	verdict(overhead <= maxUntracedOverhead, "idle-tracer overhead %.3fx of the tracer-less funnel, budget %.2f (ns-based: rerun before believing a failure)", overhead, maxUntracedOverhead)
	speedup := ratio(got, "BenchmarkFullAuditSerial", "BenchmarkFullAuditParallel")
	if procs >= speedupProcs {
		verdict(speedup >= minParallelSpeedup, "FullAudit parallel speedup %.3fx on %d procs, floor %.1f", speedup, procs, minParallelSpeedup)
	} else {
		fmt.Fprintf(w, "     FullAudit parallel speedup %.3fx on %d procs: recorded (parallel_speedup_valid %t), evaluated only from %d procs\n",
			speedup, procs, procs >= 2, speedupProcs)
	}
	return failed
}

func main() {
	count := flag.Int("count", 3, "runs per benchmark; the ledgers record the mean")
	flag.Parse()
	if flag.NArg() != 0 || *count < 1 {
		flag.Usage()
		os.Exit(2)
	}
	got, procs, err := measure(*count)
	if err != nil {
		fatal(err)
	}
	for _, ledger := range ledgers {
		file := "BENCH_" + ledger + ".json"
		if err := os.WriteFile(file, []byte(ledgerJSON(ledger, got, procs, runtime.NumCPU())), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("==> wrote", file)
	}
	if failed := judge(got, procs, os.Stdout); failed > 0 {
		fatal(fmt.Errorf("%d checks failed", failed))
	}
	fmt.Println("==> bench-compare ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
