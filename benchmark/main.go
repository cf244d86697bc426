// Command benchmark is the repository's one end-to-end benchmark: it
// generates the paper's campaign dataset from a seed, brings each
// deployment shape up in-process over loopback sockets, drives it,
// checks what came out, and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/trace"
)

// options is one run's configuration.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// clients is the closed-loop client count: min(nproc, 4).
	clients int
	// publishers and campaigns shrink the universe for the smoke test;
	// zero values mean the paper's 150,000 publishers and 8 campaigns.
	publishers int
	campaigns  []adnet.Campaign
	// dir is the scratch directory for WALs; traceFile is where a traced
	// run writes its Chrome trace.
	dir       string
	traceFile string
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees, on every workload. An
// "impression" is one committed on wire_* and ingest_inproc, and one
// audited (stored impressions × reports produced) on audit_*.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"imps_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_imp", "us", "lower", 0.25},
	{"allocs_per_imp", "count", "lower", 0.06},
	{"bytes_per_imp", "B", "lower", 0.15},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"heap_bytes_per_imp", "B", "lower", 0.08},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// result is what one workload run measured.
type result struct {
	workload   string
	attempted  int
	failed     int
	setup      []float64 // seconds per set-up, at nominal machine speed
	windows    []window  // the timed section, in slices of about a second or one operation
	heapBase   uint64    // live heap before the tier under test was built
	heapPerImp float64
	layer      map[string]float64 // per-layer metrics, traced runs only
	pipeline   []trace.Snapshot   // the traced half's flight-recorder content
}

// endToEnd computes the end-to-end metrics, in table order.
func (r *result) endToEnd() []float64 {
	t := total(r.windows)
	return []float64{
		median(r.setup),
		over(r.windows, window.rate),
		over(r.windows, window.cpuPerImp),
		float64(t.mallocs) / float64(t.imps),
		float64(t.bytes) / float64(t.imps),
		over(r.windows, window.opNominal),
		r.heapPerImp,
	}
}

// runWorkload sets up `setups` times — dataset generation plus tier
// up, the earlier rigs torn down — and measures on the last.
func runWorkload(o options, w workload) (*result, error) {
	r := &result{workload: w.name, layer: map[string]float64{}}
	for i := 0; i < 5; i++ {
		yardstick() // its first readings in a process are slow: page faults, a cold heap
	}
	var rg rig
	var d *dataset
	log := &spanLog{run: fmt.Sprintf("%s-seed%d", w.name, o.seed)}
	defer func() {
		if rg != nil {
			rg.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if rg != nil {
			rg.close()
			rg = nil
		}
		speed := yardstick()
		t0 := time.Now()
		var err error
		log.do(0, "setup.dataset", func() { d, err = buildDataset(o) })
		if err != nil {
			return nil, fmt.Errorf("generating dataset: %w", err)
		}
		gen := time.Since(t0)
		if i == setups-1 {
			r.heapBase = liveHeap() // between the spans, in neither
		}
		t1 := time.Now()
		log.do(0, "setup.up", func() { rg, err = w.up(o, d) })
		if err != nil {
			return nil, fmt.Errorf("bringing %s up: %w", w.name, err)
		}
		raw := (gen + time.Since(t1)).Seconds()
		r.setup = append(r.setup, raw*(speed+yardstick())/2)
	}
	var err error
	log.do(0, "measure", func() { err = rg.measure(o, r) })
	if err != nil || !o.trace {
		return r, err
	}
	rg.close() // the layer pass wants the cores to itself
	rg = nil
	if err := runLayerPass(o, d, r, log); err != nil {
		return nil, err
	}
	// The newest traces are enough to read a pipeline in a viewer; the
	// percentiles above already used all of them.
	return r, log.writeChrome(o.traceFile, r.pipeline[:min(len(r.pipeline), 2000)])
}

func find(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// normalizeArgs lets -trace be given bare (`-trace`) or with a value
// (`--trace 1`, as the driver passes it): flag's bool syntax accepts
// only -trace=1, so a following 0/1/true/false is folded into it.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	var o options
	var name string
	var repeat int
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: equal seeds generate equal inputs")
	fs.StringVar(&name, "workload", "", "run one workload (default: all); one of "+strings.Join(names(), ", "))
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of each workload's timed section")
	fs.BoolVar(&o.trace, "trace", false, "the traced run: per-layer metrics and out/trace.json, end-to-end numbers not for comparison")
	describe := fs.Bool("describe", false, "print BENCHMARK.json as the tables in this program define it, and exit")
	fs.IntVar(&repeat, "repeat", 1, "run N sets and report each end-to-end metric's quartiles and spread beside its bound")
	_ = fs.Parse(normalizeArgs(os.Args[1:]))
	o.clients = min(runtime.NumCPU(), 4)
	if *describe {
		if err := printDescription(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	run := workloads
	if name != "" {
		w, ok := find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", name, strings.Join(names(), ", "))
			os.Exit(2)
		}
		run = []workload{w}
	}
	dir, err := scratchDir("out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	o.dir, o.traceFile = dir, "out/trace.json"
	code := 0
	if err := runAll(o, run, repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
		code = 1
	}
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// scratchDir makes the directory WALs and trace output go to, inside
// the benchmark's own tree.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func runAll(o options, run []workload, repeat int) error {
	fmt.Printf("load model: one process, closed loop, %d clients (min(nproc=%d, 4)), one connection each at a time, loopback; GOMAXPROCS=%d %s seed=%d seconds=%g trace=%v\n",
		o.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds, o.trace)
	if repeat > 1 {
		return runRepeat(o, run, repeat)
	}
	var last *result
	for _, w := range run {
		r, err := runWorkload(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(r)
		if o.trace && o.seed == 1 && o.publishers == 0 {
			selfValidate(r)
		}
		last = r
	}
	if len(run) == 1 {
		return printJSON(o, last)
	}
	return nil
}

func printResult(r *result) {
	raw := func(f func(window) float64) float64 {
		return over(r.windows, func(w window) float64 { w.speed = 1; return f(w) })
	}
	fmt.Printf("\n%s: attempted=%d failed=%d windows=%d; machine speed %.3f of nominal (median; raw: %.1f imps/s, %.2f us CPU/imp, %.4f ms/op)\n",
		r.workload, r.attempted, r.failed, len(r.windows), over(r.windows, func(w window) float64 { return w.speed }),
		raw(window.rate), raw(window.cpuPerImp), raw(window.opNominal))
	vals := r.endToEnd()
	for i, m := range endToEnd {
		fmt.Printf("  %-22s %14.4f %-6s (%s is better, bound %.0f%%)\n", m.name, vals[i], m.unit, m.better, m.bound*100)
	}
	for _, k := range sortedKeys(r.layer) {
		fmt.Printf("  %-34s %16.4f\n", k, r.layer[k])
	}
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the driver's result line: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func printJSON(o options, r *result) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonValue{}}
	if o.trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = jsonValue{r.layer[m.name], m.unit}
		}
	} else {
		for i, v := range r.endToEnd() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: %s is not finite", r.workload, endToEnd[i].name)
			}
			out.Metrics[endToEnd[i].name] = jsonValue{v, endToEnd[i].unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSeconds is the length of a timed section the driver asks for.
const runSeconds = 6

// printDescription writes BENCHMARK.json from the workload and metric
// tables, so the file the driver reads cannot drift from the program.
func printDescription() error {
	type jw struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []jw     `json:"workloads"`
		EndToEnd   []jm     `json:"end_to_end"`
		PerLayer   []jm     `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jw{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.bound
		doc.EndToEnd = append(doc.EndToEnd, jm{m.name, m.unit, m.better, &b})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jm{m.name, m.unit, m.better, nil})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
