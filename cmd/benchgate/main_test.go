package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/gobench.txt is the raw `go test -bench` output of the last
// run the deleted scripts/bench_compare.sh recorded (commit 5986788);
// testdata/BENCH_*.json are the ledgers that script wrote from those
// lines, less the two hop-overhead ratios this gate no longer records.
// Parser and writer must reproduce them byte for byte: custom metrics
// skipped, -GOMAXPROCS suffix read and stripped, means rounded alike.
func TestParseAndLedgerMatchRecordedRun(t *testing.T) {
	out, err := os.ReadFile("testdata/gobench.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, procs := parse(out)
	if procs != 2 {
		t.Errorf("procs = %d, want 2 (the -2 suffix)", procs)
	}
	for _, ledger := range ledgers {
		want, err := os.ReadFile("testdata/BENCH_" + ledger + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if have := ledgerJSON(ledger, got, procs, 2); have != string(want) {
			t.Errorf("BENCH_%s.json:\n%s\nwant:\n%s", ledger, have, want)
		}
	}
}

// Renaming or moving a gated benchmark fails here, in tier 1, instead
// of reading "0 runs" in a job that is not run on every change.
func TestEveryRowNamesABenchmarkThatExists(t *testing.T) {
	pkgOf := map[string]string{}
	for _, r := range table {
		if p, ok := pkgOf[r.bench]; ok && p != r.pkg {
			t.Errorf("%s is gated in %s and %s: ledger rows carry the name only", r.bench, p, r.pkg)
		}
		pkgOf[r.bench] = r.pkg
		files, err := filepath.Glob(filepath.Join("..", "..", r.pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || bytes.Contains(src, []byte("\nfunc "+r.bench+"(b *testing.B)"))
		}
		if !found {
			t.Errorf("no func %s(b *testing.B) in the %d test files of %s", r.bench, len(files), r.pkg)
		}
	}
}

// The committed ledgers and the table cannot drift: each BENCH_*.json
// lists exactly its rows, in table order, every one under its ceiling.
func TestCommittedLedgersListTheirRows(t *testing.T) {
	for _, ledger := range ledgers {
		raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+ledger+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Benchmarks []struct {
				Name   string  `json:"name"`
				Allocs float64 `json:"allocs_per_op"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("BENCH_%s.json: %v", ledger, err)
		}
		var rows []row
		for _, r := range table {
			if r.ledger == ledger {
				rows = append(rows, r)
			}
		}
		if len(file.Benchmarks) != len(rows) {
			t.Errorf("BENCH_%s.json has %d rows, the table %d", ledger, len(file.Benchmarks), len(rows))
			continue
		}
		for i, b := range file.Benchmarks {
			if b.Name != rows[i].bench {
				t.Errorf("BENCH_%s.json row %d is %s, the table's is %s", ledger, i, b.Name, rows[i].bench)
			} else if b.Allocs > rows[i].ceiling {
				t.Errorf("BENCH_%s.json records %s at %g allocs/op, over its ceiling %g", ledger, b.Name, b.Allocs, rows[i].ceiling)
			}
		}
	}
}

// The speedup floor cannot be exercised on the 2-core box the gate
// usually runs on, so its three regimes are driven here.
func TestJudge(t *testing.T) {
	atCeiling := func() map[string]result {
		got := map[string]result{}
		for _, r := range table {
			got[r.bench] = result{runs: 3, ns: 100, allocs: r.ceiling}
		}
		return got
	}
	for _, tc := range []struct {
		name       string
		procs      int
		edit       func(map[string]result)
		wantFailed int
		wantOutput string
	}{
		{"every row at its ceiling", 2, func(map[string]result) {}, 0, "recorded (parallel_speedup_valid true)"},
		{"one proc records, does not evaluate", 1, func(map[string]result) {}, 0, "recorded (parallel_speedup_valid false)"},
		{"an allocation per insert", 2, func(g map[string]result) { g["BenchmarkInsert"] = result{runs: 3, ns: 100, allocs: 1} },
			1, "FAIL BenchmarkInsert"},
		{"a benchmark that printed nothing", 2, func(g map[string]result) { delete(g, "BenchmarkStreamApply") },
			1, "FAIL BenchmarkStreamApply"},
		{"idle tracer 6 % dearer", 2, func(g map[string]result) { g["BenchmarkIngestUntraced"] = result{runs: 3, ns: 106, allocs: 3} },
			1, "FAIL idle-tracer overhead 1.060x"},
		{"no speedup on four procs", 4, func(map[string]result) {}, 1, "FAIL FullAudit parallel speedup 1.000x on 4 procs"},
		{"3.2x on four procs", 4, func(g map[string]result) { g["BenchmarkFullAuditSerial"] = result{runs: 3, ns: 320, allocs: 500} },
			0, "ok   FullAudit parallel speedup 3.200x on 4 procs"},
	} {
		got := atCeiling()
		tc.edit(got)
		var out strings.Builder
		if failed := judge(got, tc.procs, &out); failed != tc.wantFailed || !strings.Contains(out.String(), tc.wantOutput) {
			t.Errorf("%s: %d failed, want %d and %q in:\n%s", tc.name, failed, tc.wantFailed, tc.wantOutput, out.String())
		}
	}
}
