package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"adaudit/internal/adnet"
)

// smokeOptions is every workload in miniature: one campaign on a
// 2,000-publisher universe, one second of load.
func smokeOptions(t *testing.T) options {
	return options{
		seed:       7,
		seconds:    1,
		clients:    min(runtime.NumCPU(), 4),
		publishers: 2000,
		campaigns:  adnet.PaperCampaigns()[:1],
		dir:        t.TempDir(),
		traceFile:  filepath.Join(t.TempDir(), "trace.json"),
	}
}

// TestEveryWorkloadRunsAndReports runs each workload briefly and holds
// it to the benchmark's own contract: the correctness checks pass,
// nothing fails, and every named end-to-end metric comes out finite,
// positive and with a unit.
func TestEveryWorkloadRunsAndReports(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(smokeOptions(t), w)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Fatalf("attempted=%d failed=%d, want some and none", r.attempted, r.failed)
			}
			for i, v := range r.endToEnd() {
				m := endToEnd[i]
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v, want finite and positive", m.name, v)
				}
				if m.unit == "" || m.bound <= 0 || m.bound > 0.25 {
					t.Errorf("%s: unit %q bound %v", m.name, m.unit, m.bound)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced variant of the
// workload with the most tiers on its path and checks that every
// per-layer metric is finite, the tracer saw the tiers, no metric goes
// undeclared, and the trace is written.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	o := smokeOptions(t)
	o.trace = true
	w, _ := find("wire_sharded")
	r, err := runWorkload(o, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		// A layer that is not on this workload's path reads 0.
		if v := r.layer[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v", m.name, v)
		}
		if m.unit == "" {
			t.Errorf("per-layer metric %s has no unit", m.name)
		}
	}
	for _, name := range []string{"router.hop_us_p50", "collector.commit_us_p50", "streamaudit.lag_us_p50", "shardmerge.fetch_ms"} {
		if r.layer[name] <= 0 {
			t.Errorf("%s = %v on wire_sharded, want the tracer to have seen it", name, r.layer[name])
		}
	}
	for name := range r.layer {
		if !declared(name) {
			t.Errorf("metric %s is reported but not declared in perLayer", name)
		}
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	b, err := os.ReadFile(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, and the tables this program prints from, the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW [][2]string
	for _, w := range doc.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, wantW)
	}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: json %+v, code %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound in json %v, in code %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the driver's definition.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2}, [3]float64{0, 6, 12}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "audit_live", "--seed", "3", "--seconds", "10", "--trace", "0"}, []string{"--workload", "audit_live", "--seed", "3", "--seconds", "10", "--trace=0"}},
		{[]string{"-trace", "1"}, []string{"-trace=1"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-trace"}, []string{"-trace"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
