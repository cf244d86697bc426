package simtest

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The harness flags make any failure a one-line reproducer:
//
//	go test ./internal/simtest -run TestSim -seed=<n> [-only=3,17]
var (
	flagSeed = flag.Int64("seed", -1,
		"run exactly this schedule seed instead of the sweep")
	flagSeeds = flag.Int("seeds", 6,
		"number of seeds the sweep explores when -seed is not set")
	flagSessions = flag.Int("sessions", 48,
		"beacon sessions per schedule")
	flagOnly = flag.String("only", "",
		"comma-separated session indices to deliver (a shrunk reproducer)")
	flagDigestOut = flag.String("digest-out", "",
		"write 'seed digest' lines here (the determinism gate diffs two runs)")
)

func parseOnly(t *testing.T, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			t.Fatalf("bad -only element %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out
}

// runSeed executes the serial (digest-producing) phase and the
// 4-worker concurrent phase for one seed, reporting any violation with
// its minimal reproducer.
func runSeed(t *testing.T, seed int64, only []int) string {
	t.Helper()
	cfg := Config{
		Seed:     seed,
		Sessions: *flagSessions,
		Only:     only,
		Dir:      t.TempDir(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if res.Failed() {
		reportFailure(t, cfg, res)
		return res.Digest
	}
	if only == nil && res.Conversions == 0 {
		t.Errorf("seed %d delivered no conversion: its recovery checks covered impressions only", seed)
	}

	conc := cfg
	conc.Workers = 4
	cres, err := Run(conc)
	if err != nil {
		t.Fatalf("seed %d (concurrent): %v", seed, err)
	}
	if cres.Failed() {
		t.Errorf("seed %d: concurrent phase violated invariants:\n  %s",
			seed, strings.Join(cres.Violations, "\n  "))
	}
	return res.Digest
}

// reportFailure shrinks the failing schedule and prints the one-line
// reproducer alongside the violations.
func reportFailure(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	min, minRes, err := Shrink(cfg)
	if err != nil {
		t.Errorf("seed %d failed and shrinking errored: %v\noriginal violations:\n  %s",
			cfg.Seed, err, strings.Join(res.Violations, "\n  "))
		return
	}
	onlyList := make([]string, len(min))
	for i, s := range min {
		onlyList[i] = strconv.Itoa(s)
	}
	t.Errorf("seed %d violated invariants; minimal reproducer:\n"+
		"  go test ./internal/simtest -run TestSim -seed=%d -only=%s\n"+
		"shrunk to %d session(s), violations:\n  %s",
		cfg.Seed, cfg.Seed, strings.Join(onlyList, ","),
		len(min), strings.Join(minRes.Violations, "\n  "))
}

// TestSim is the simulation sweep: N seeded schedules through the full
// ingest → store → audit pipeline with the oracle watching. With -seed
// it replays one schedule (optionally filtered by -only) — the
// reproducer mode a failure report names.
func TestSim(t *testing.T) {
	if *flagSeed >= 0 {
		digest := runSeed(t, *flagSeed, parseOnly(t, *flagOnly))
		t.Logf("seed %d digest %s", *flagSeed, digest)
		return
	}
	var digests []string
	for seed := int64(1); seed <= int64(*flagSeeds); seed++ {
		digest := runSeed(t, seed, nil)
		digests = append(digests, fmt.Sprintf("%d %s\n", seed, digest))
	}
	if *flagDigestOut != "" {
		if err := os.WriteFile(*flagDigestOut, []byte(strings.Join(digests, "")), 0o644); err != nil {
			t.Fatalf("writing -digest-out: %v", err)
		}
	}
}

// TestSimDeterminism replays one seed twice and demands identical trace
// digests — the property that makes every reproducer trustworthy.
func TestSimDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Sessions: *flagSessions, Dir: t.TempDir()}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != second.Digest {
		t.Fatalf("same seed, different digests: %s vs %s", first.Digest, second.Digest)
	}
	if first.Failed() {
		reportFailure(t, cfg, first)
	}
}

// TestSimTracePropagation runs the schedule with every other session
// carrying wire trace context and holds the pipeline to the trace
// invariant: each traced session's flight-recorder trace is complete
// through the stream-apply stage (or explicitly truncated) and no
// orphan spans remain — across reconnects, duplicate replays and
// reordered segments, in both the serial phase and the concurrent
// phase the -race sweep exercises.
func TestSimTracePropagation(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := Config{
			Seed:        5,
			Sessions:    *flagSessions,
			Workers:     workers,
			Dir:         t.TempDir(),
			TraceSample: 2,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Traced == 0 {
			t.Fatalf("workers=%d: schedule stamped no trace context", workers)
		}
		if res.Failed() {
			t.Errorf("workers=%d: trace run violated invariants (%d traced sessions):\n  %s",
				workers, res.Traced, strings.Join(res.Violations, "\n  "))
		}
	}
}

// TestOracleCatchesDedupRegression re-breaks the nonce-dedup path (the
// sim strips nonces from continuation segments, exactly what a
// regressed collector cache would effect) and requires the oracle to
// flag it AND the shrinker to reduce the failure to a single session —
// the executable proof that the harness detects the bug class it was
// built for.
func TestOracleCatchesDedupRegression(t *testing.T) {
	cfg := Config{
		Seed:       11,
		Sessions:   24,
		Dir:        t.TempDir(),
		BreakDedup: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("oracle missed the injected dedup regression")
	}

	min, minRes, err := Shrink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 1 {
		t.Fatalf("shrinker left %d sessions (%v), want 1", len(min), min)
	}
	if !minRes.Failed() {
		t.Fatal("shrunk reproducer no longer fails")
	}
	t.Logf("dedup regression shrunk to session %v; violations:\n  %s",
		min, strings.Join(minRes.Violations, "\n  "))

	// The identical subset with dedup intact must pass: the violation
	// is the injected bug, not harness noise.
	clean := cfg
	clean.BreakDedup = false
	clean.Only = min
	cres, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Failed() {
		t.Fatalf("minimal subset fails even without the injected bug:\n  %s",
			strings.Join(cres.Violations, "\n  "))
	}
}

// TestSimCatchesReplay runs the committed mutant of a store that ignores
// its leg mask — every segment delivered as a leg of its own, so a
// duplicate delivery merges a second time — and requires the oracle to
// flag it, the shrinker to reduce it to one session, and that session
// to pass with the mask intact: the proof that the oracle counts each
// leg once, and would see a replay counted twice.
func TestSimCatchesReplay(t *testing.T) {
	cfg := Config{
		Seed:      11,
		Sessions:  24,
		Dir:       t.TempDir(),
		BreakLegs: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("oracle missed the store ignoring its leg mask")
	}
	min, minRes, err := Shrink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 1 || !minRes.Failed() {
		t.Fatalf("shrinker left %d sessions (%v), failing %v; want 1 that fails", len(min), min, minRes.Failed())
	}
	t.Logf("ignored leg mask shrunk to session %v; violations:\n  %s",
		min, strings.Join(minRes.Violations, "\n  "))

	clean := cfg
	clean.BreakLegs = false
	clean.Only = min
	cres, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Failed() {
		t.Fatalf("minimal subset fails even with the leg mask intact:\n  %s",
			strings.Join(cres.Violations, "\n  "))
	}
}

// TestSimWireMix sweeps schedules with roughly half the sessions
// delivered as binary wire frames and demands the digest be
// byte-identical to the all-text run of the same seed — the end-to-end
// proof that the binary codec is observationally equivalent to text,
// through dedup, merges, duplicate replays, WAL recovery probes and
// the full oracle. The concurrent phase then races mixed wires under
// the order-insensitive invariants.
func TestSimWireMix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := Config{Seed: seed, Sessions: *flagSessions, Dir: t.TempDir()}
		text, err := Run(base)
		if err != nil {
			t.Fatalf("seed %d text: %v", seed, err)
		}
		if text.Failed() {
			reportFailure(t, base, text)
			continue
		}
		mixed := base
		mixed.WireMix = true
		mres, err := Run(mixed)
		if err != nil {
			t.Fatalf("seed %d mixed: %v", seed, err)
		}
		if mres.Failed() {
			t.Errorf("seed %d: wire-mix run violated invariants:\n  %s",
				seed, strings.Join(mres.Violations, "\n  "))
		}
		if mres.Digest != text.Digest {
			t.Errorf("seed %d: wire-mix digest %s != all-text digest %s (binary codec not equivalent)",
				seed, mres.Digest, text.Digest)
		}
		if mres.BinaryDeliveries == 0 || mres.BinaryDeliveries == mres.Deliveries {
			t.Errorf("seed %d: degenerate wire mix (%d/%d binary) — equality proves nothing",
				seed, mres.BinaryDeliveries, mres.Deliveries)
		}
		conc := mixed
		conc.Workers = 4
		cres, err := Run(conc)
		if err != nil {
			t.Fatalf("seed %d mixed concurrent: %v", seed, err)
		}
		if cres.Failed() {
			t.Errorf("seed %d: concurrent wire-mix violated invariants:\n  %s",
				seed, strings.Join(cres.Violations, "\n  "))
		}
	}
}
