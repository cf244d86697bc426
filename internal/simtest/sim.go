// Package simtest is a deterministic simulation-testing harness for the
// beacon → collector → store → audit pipeline, in the style of
// FoundationDB's simulator: a seeded schedule generator produces a
// reproducible workload of beacon sessions — clean one-shot exposures,
// dropped beacons, reconnects resuming under the original nonce,
// duplicate deliveries, reordered continuation segments — and drives it
// through the collector's Ingest funnel on a virtual clock while a
// shadow model (oracle.go) predicts exactly what the store must
// contain. After the run the harness checks the paper's measurement
// invariants:
//
//   - zero-loss: every delivered session has a record;
//   - no-duplication: one record per nonce, each leg merged once;
//   - exposure monotonicity: a record's exposure never decreases;
//   - durability: WAL replay (over the latest snapshot) reconstructs
//     the live store byte for byte, mid-run and at the end;
//   - audit determinism: the parallel audit equals the serial audit;
//   - trace completeness (with Config.TraceSample set): every traced
//     session's pipeline trace finishes — complete through the
//     stream-apply stage or explicitly truncated — and no orphan spans
//     linger in the flight recorder, even across reconnects,
//     duplicates and reordered replays.
//
// Everything derives from the seed, so a failing schedule is a
// one-line reproducer (go test ./internal/simtest -run TestSim
// -seed=<n>), the trace digest is identical across runs of the same
// seed, and shrink.go can minimise a failure to the smallest session
// subset that still trips the oracle.
package simtest

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/simclock"
	"adaudit/internal/stats"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/trace"
)

// Config parameterises one simulation run. Seed is the only input that
// changes the schedule; everything else scales or filters it.
type Config struct {
	// Seed drives every random choice in the schedule.
	Seed int64
	// Sessions is the number of beacon sessions to schedule (default 48).
	Sessions int
	// Workers > 1 delivers sessions concurrently (each session's
	// segments stay in order on one worker) and checks only the
	// order-insensitive invariants; 0 or 1 is the fully deterministic
	// serial phase that also produces the trace digest.
	Workers int
	// Only restricts delivery to the listed session indices — the
	// shrinker's handle, and the second half of a minimal reproducer.
	// Nil delivers every session.
	Only []int
	// Dir is the scratch directory for the WAL and snapshots. Each Run
	// creates a fresh subdirectory, so one Dir serves many runs.
	Dir string
	// BreakDedup simulates a nonce-dedup regression: continuation
	// segments are delivered without their nonce, so the collector
	// inserts fresh records instead of merging. The oracle still
	// expects correct behaviour — the run must report violations. This
	// keeps a permanent, executable proof that the oracle catches the
	// dedup failure mode.
	BreakDedup bool
	// BreakLegs simulates a store that ignores its mask of merged legs:
	// every segment goes out as a leg of its own, so a duplicate merges
	// again. The oracle still counts each leg once; the run must fail.
	BreakLegs bool
	// TraceSample > 0 stamps pipeline trace context (a deterministic
	// trace ID derived from the nonce) on 1-in-N non-dropped sessions
	// and runs the collector with a flight recorder attached. The
	// oracle then checks trace completeness: every stamped session's
	// trace must finish (through stream apply, or explicitly
	// truncated), and the recorder's active set must drain to empty.
	// 0 disables tracing. Stamping draws nothing from the schedule
	// RNG, so digests are unaffected.
	TraceSample int
	// WireMix delivers roughly half the sessions as pre-encoded binary
	// wire frames through Collector.IngestBinary instead of decoded
	// Observations — the mixed text+binary fleet a real deployment
	// sees. The per-session wire pick hashes the nonce, drawing
	// nothing from the schedule RNG, so a WireMix run's digest must be
	// byte-identical to the all-text run's: that equality IS the
	// binary codec's end-to-end correctness invariant.
	WireMix bool
	// Attack injects the adversarial scenario pack into the schedule:
	// "spoof" (domain-spoofed reporting), "pool" (one seller ID resold
	// across unrelated owner groups), "bot" (a residential timer bot
	// with a degenerate behavioral signature), "inflate" (a stacked
	// 1-px placement), or "all". Attack sessions carry ground-truth
	// labels into the shadow model; the oracle then demands the audit's
	// adversarial detectors flag exactly the injected fraud. Empty
	// injects nothing — and the oracle demands zero adversarial flags,
	// the false-positive floor every clean seed is held to.
	Attack string
	// DisableDetector blanks one adversarial dimension ("sellers",
	// "pooling" or "behavior") in the report the oracle inspects,
	// simulating a regressed/removed detector. With an Attack injected,
	// the run must then fail — the executable proof the oracle's
	// adversarial invariant has teeth.
	DisableDetector string
	// Shards > 0 adds a post-hoc sharded-topology oracle: the final
	// store is partitioned onto Shards stores by the router's partition
	// function (nonce hash; conversions by user key), one streamaudit
	// engine runs per shard, and the shard-merged report must equal the
	// batch audit over the combined store. The partition runs after the
	// digest is sealed and draws nothing from the schedule RNG, so a
	// run's digest is byte-identical across shard counts.
	Shards int
}

// Result is the outcome of one run.
type Result struct {
	// Digest fingerprints the schedule, every delivery outcome, and the
	// final store content. Same seed (and config) → same digest.
	Digest string
	// Violations are oracle findings; empty means the run passed.
	Violations []string
	// Sessions and Deliveries count the scheduled work after Only
	// filtering.
	Sessions   int
	Deliveries int
	// Traced counts the sessions that carried trace context (0 unless
	// Config.TraceSample was set).
	Traced int
	// BinaryDeliveries counts the deliveries routed over the binary
	// wire (0 unless Config.WireMix) — the degenerate-mix guard: a
	// wire-mix run whose digest matches all-text proves nothing if no
	// delivery actually took the binary path.
	BinaryDeliveries int
	// Conversions counts the conversion-pixel deliveries: the guard
	// that the durability invariant covered conversions at all.
	Conversions int
	// AdversarialFlags counts the entities the adversarial detectors
	// flagged in the final audit (unauthorized seller pairs + pooled
	// sellers + bot users + inflated publishers, summed over
	// campaigns) — the attack tests' non-vacuity guard, and the clean
	// runs' zero-flag floor.
	AdversarialFlags int
}

// Failed reports whether the oracle found violations.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

type scenario int

const (
	// scenarioClean is a single connect-expose-close session.
	scenarioClean scenario = iota
	// scenarioDrop is a beacon that never reaches the collector (page
	// blocked the script, network ate the connection) — the loss side
	// of the model: no record may appear.
	scenarioDrop
	// scenarioReconnect is a session whose connection dies mid-exposure
	// and resumes 1–2 times under the original nonce.
	scenarioReconnect
	// scenarioDuplicate delivers the identical initial segment twice —
	// a retransmitted payload the store's nonce index must drop as a
	// leg it already holds.
	scenarioDuplicate
	// scenarioReorder is a reconnect whose segments arrive out of
	// chronological order.
	scenarioReorder
	// The adversarial scenarios (Config.Attack): single-segment
	// sessions carrying injected fraud plus the ground-truth label the
	// oracle's checkAdversarial compares detector output against.
	scenarioBot
	scenarioInflate
	scenarioSpoof
	scenarioPool
)

func (s scenario) String() string {
	switch s {
	case scenarioClean:
		return "clean"
	case scenarioDrop:
		return "drop"
	case scenarioReconnect:
		return "reconnect"
	case scenarioDuplicate:
		return "duplicate"
	case scenarioReorder:
		return "reorder"
	case scenarioBot:
		return "bot"
	case scenarioInflate:
		return "inflate"
	case scenarioSpoof:
		return "spoof"
	case scenarioPool:
		return "pool"
	}
	return "unknown"
}

// segment is one delivered connection of a session: the initial
// exposure or a continuation after a reconnect.
// Its payload's leg is its index before a reorder permuted delivery.
// A segment with conv set is instead the session's user hitting the
// advertiser's conversion pixel, after every exposure segment.
type segment struct {
	session   int
	index     int // within-session delivery order, 0 = creates the record
	obs       collector.Observation
	conv      *collector.ConversionObservation
	deliverAt time.Time
}

// simSession is one scheduled beacon lifetime.
type simSession struct {
	idx      int
	kind     scenario
	nonce    string
	segments []segment // in delivery order

	// Adversarial ground truth (attack sessions only): the publisher
	// and seller the vendor report books the impression under. Honest
	// sessions leave both empty — the report then carries the beacon's
	// true publisher and its direct seller account.
	reportedPublisher string
	sellerID          string
}

// simBase is the virtual-time origin of every schedule — the paper's
// campaign flight month.
var simBase = time.Date(2016, time.March, 29, 9, 0, 0, 0, time.UTC)

var simCampaigns = []struct {
	ID       string
	Keywords []string
}{
	{"sim-research", []string{"ciencia", "investigación"}},
	{"sim-football", []string{"fútbol", "liga"}},
	{"sim-news", []string{"noticias", "actualidad"}},
}

var simAgents = []string{
	"Mozilla/5.0 (X11; Linux x86_64) Firefox/44.0",
	"Mozilla/5.0 (Windows NT 6.1) Chrome/48.0",
	"Mozilla/5.0 (Macintosh) Safari/601.4",
}

// universeFor builds the publisher inventory a schedule draws pages
// from. It depends only on the seed, never on session count or
// filtering, so shrunk reproducers see the identical universe.
func universeFor(seed int64) (*publisher.Universe, error) {
	return publisher.NewUniverse(publisher.Config{
		Seed:          seed ^ 0x51e5_7e57, // decouple from other seed uses
		NumPublishers: 400,
	})
}

// generate expands a seed into the full session schedule. Every session
// forks its own RNG stream, so session i's schedule is identical
// whether or not the other sessions are delivered — the property the
// shrinker relies on.
func generate(cfg Config, uni *publisher.Universe) []simSession {
	rng := stats.NewRNG(cfg.Seed)
	sessions := make([]simSession, cfg.Sessions)
	for i := range sessions {
		sessions[i] = genSession(cfg, i, rng.Fork(fmt.Sprintf("session/%d", i)), uni)
	}
	return sessions
}

func genSession(cfg Config, idx int, rng *stats.RNG, uni *publisher.Universe) simSession {
	s := simSession{idx: idx, nonce: fmt.Sprintf("sim-%x-%04d", uint64(cfg.Seed), idx)}
	if kind, ok := attackKindFor(cfg.Attack, idx); ok {
		return genAttackSession(cfg, s, kind, rng, uni)
	}
	switch p := rng.Float64(); {
	case p < 0.45:
		s.kind = scenarioClean
	case p < 0.55:
		s.kind = scenarioDrop
	case p < 0.80:
		s.kind = scenarioReconnect
	case p < 0.90:
		s.kind = scenarioDuplicate
	default:
		s.kind = scenarioReorder
	}

	camp := simCampaigns[rng.Intn(len(simCampaigns))]
	pub := uni.At(rng.Intn(uni.Len()))
	payload := beacon.Payload{
		CampaignID: camp.ID,
		CreativeID: fmt.Sprintf("cr%d", 1+rng.Intn(3)),
		PageURL:    "http://www." + pub.Domain + "/ad-slot",
		UserAgent:  simAgents[rng.Intn(len(simAgents))],
		Nonce:      s.nonce,
	}
	ip := netip.AddrFrom4([4]byte{10, byte(rng.Intn(250)), byte(rng.Intn(250)), byte(1 + rng.Intn(250))})
	connectedAt := simBase.Add(time.Duration(idx)*time.Second +
		time.Duration(rng.Intn(1000))*time.Millisecond)

	if s.kind == scenarioDrop {
		return s
	}
	if cfg.TraceSample > 0 && idx%cfg.TraceSample == 0 {
		// Trace context rides the payload exactly as a real beacon
		// sends it; every segment (reconnect, duplicate, reorder) of
		// the session carries the same wire ID, so merge legs adopt
		// and re-finish it the way production replays do. Derived from
		// the nonce, not the RNG: schedules and digests are unchanged.
		payload.TraceID = traceIDFor(s.nonce)
		payload.TraceSent = connectedAt.UnixNano()
	}

	nsegs := 1
	switch s.kind {
	case scenarioReconnect, scenarioReorder:
		nsegs = 2 + rng.Intn(2)
	case scenarioDuplicate:
		nsegs = 2
	}

	deliverAt := connectedAt
	for k := 0; k < nsegs; k++ {
		exposure := time.Duration(1+rng.Intn(120)) * time.Second
		if rng.Bool(0.04) {
			// An abandoned tab: exercise the collector's MaxExposure
			// clamp (the model clamps identically).
			exposure = 2 * time.Hour
		}
		seg := segment{
			session: idx,
			index:   k,
			obs: collector.Observation{
				Payload:     payload,
				RemoteIP:    ip,
				ConnectedAt: connectedAt,
				Exposure:    exposure,
			},
		}
		seg.obs.Payload.Leg = uint8(k)
		if s.kind == scenarioDuplicate && k > 0 {
			// Byte-identical retransmission of the first segment, its
			// leg included.
			seg.obs = s.segments[0].obs
			deliverAt = deliverAt.Add(time.Duration(1+rng.Intn(10)) * time.Second)
			seg.deliverAt = deliverAt
			s.segments = append(s.segments, seg)
			continue
		}
		seg.obs.Payload.Events = genEvents(rng)
		deliverAt = deliverAt.Add(exposure + time.Duration(rng.Intn(15))*time.Second)
		seg.deliverAt = deliverAt
		s.segments = append(s.segments, seg)
	}

	if s.kind == scenarioReorder && len(s.segments) > 1 {
		// Permute the delivery instants among the segments, so a later
		// continuation can arrive first and create the record.
		ats := make([]time.Time, len(s.segments))
		for k := range s.segments {
			ats[k] = s.segments[k].deliverAt
		}
		perm := rng.Perm(len(s.segments))
		for k := range s.segments {
			s.segments[k].deliverAt = ats[perm[k]]
		}
		sort.SliceStable(s.segments, func(a, b int) bool {
			return s.segments[a].deliverAt.Before(s.segments[b].deliverAt)
		})
		for k := range s.segments {
			s.segments[k].index = k
		}
	}
	if value, ok := conversionFor(s.nonce); ok {
		at := s.segments[len(s.segments)-1].deliverAt.Add(time.Minute)
		s.segments = append(s.segments, segment{session: idx, index: len(s.segments), deliverAt: at,
			conv: &collector.ConversionObservation{RemoteIP: ip, UserAgent: payload.UserAgent, At: at,
				Conversion: beacon.Conversion{CampaignID: camp.ID, Action: "purchase", ValueCents: value}}})
	}
	return s
}

// conversionFor decides from the nonce whether an honest session's user
// converts (one in four) and for what value: drawing nothing from the
// schedule RNG, it leaves every seed's sessions as they were.
func conversionFor(nonce string) (valueCents int64, ok bool) {
	h := fnv.New32a()
	io.WriteString(h, "conversion/"+nonce)
	v := h.Sum32()
	return int64(v>>8) % 5000, v%4 == 0
}

// traceIDFor derives a session's wire trace ID from its nonce — a
// pure function of the schedule, so the oracle can predict exactly
// which traces must exist without threading state through delivery.
func traceIDFor(nonce string) string {
	h := fnv.New64a()
	io.WriteString(h, "trace/"+nonce)
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return fmt.Sprintf("%016x", id)
}

func genEvents(rng *stats.RNG) []beacon.Event {
	var evs []beacon.Event
	for m := rng.Intn(3); m > 0; m-- {
		evs = append(evs, beacon.Event{Kind: beacon.EventMouseMove,
			At: time.Duration(rng.Intn(30)) * time.Second})
	}
	if rng.Bool(0.25) {
		evs = append(evs, beacon.Event{Kind: beacon.EventClick,
			At: time.Duration(1+rng.Intn(30)) * time.Second})
	}
	if rng.Bool(0.7) {
		// Divide rather than multiply by 0.05: k/20 is the correctly
		// rounded float for a 2-decimal value, a fixed point of the
		// wire codecs' 3-decimal quantisation — so a payload delivered
		// as wire bytes (Config.WireMix) decodes to the exact fraction
		// the oracle's model holds. k*0.05 is not (3*0.05 ≠ 0.15 in
		// float64). The digest prints %.4f, so this is digest-neutral.
		evs = append(evs, beacon.Event{Kind: beacon.EventVisibility,
			At:       time.Duration(rng.Intn(10)) * time.Second,
			Fraction: float64(rng.Intn(21)) / 20})
	}
	return evs
}

// expectedTraces predicts the flight recorder's contents from the
// schedule: the wire trace ID of every included, non-dropped session
// that was stamped with trace context, mapped to the session itself so
// violations name their reproducer.
func expectedTraces(sessions []simSession, only []int, traceSample int) map[trace.ID]*simSession {
	if traceSample <= 0 {
		return nil
	}
	include := map[int]bool{}
	for _, i := range only {
		include[i] = true
	}
	out := map[trace.ID]*simSession{}
	for i := range sessions {
		s := &sessions[i]
		if only != nil && !include[s.idx] {
			continue
		}
		if len(s.segments) == 0 {
			continue // dropped beacon: no trace may appear
		}
		hex := s.segments[0].obs.Payload.TraceID
		if hex == "" {
			continue
		}
		id, err := trace.ParseID(hex)
		if err != nil {
			continue
		}
		out[id] = s
	}
	return out
}

// deliveries flattens the included sessions into the global delivery
// order: by instant, with (session, segment) as the deterministic
// tiebreak. Dropped sessions contribute nothing.
func deliveries(sessions []simSession, only []int) []segment {
	include := map[int]bool{}
	for _, i := range only {
		include[i] = true
	}
	var flat []segment
	for _, s := range sessions {
		if only != nil && !include[s.idx] {
			continue
		}
		flat = append(flat, s.segments...)
	}
	sort.SliceStable(flat, func(a, b int) bool {
		if !flat[a].deliverAt.Equal(flat[b].deliverAt) {
			return flat[a].deliverAt.Before(flat[b].deliverAt)
		}
		if flat[a].session != flat[b].session {
			return flat[a].session < flat[b].session
		}
		return flat[a].index < flat[b].index
	})
	return flat
}

// Run executes one simulation and checks every invariant. It never
// fails the process on a violation — violations are data, returned for
// the caller (and the shrinker) to act on.
func Run(cfg Config) (*Result, error) {
	if cfg.Sessions == 0 {
		cfg.Sessions = 48
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("simtest: Config.Dir is required")
	}
	dir, err := os.MkdirTemp(cfg.Dir, "run-")
	if err != nil {
		return nil, fmt.Errorf("simtest: scratch dir: %w", err)
	}

	uni, err := universeFor(cfg.Seed)
	if err != nil {
		return nil, err
	}
	sessions := generate(cfg, uni)
	flat := deliveries(sessions, cfg.Only)
	model := buildModel(sessions, cfg.Only, collectorMaxExposure)

	clk := simclock.NewVirtual(simBase)
	st := store.New()
	walPath := filepath.Join(dir, "sim.wal")
	// Every run journals under group commit, the durable policy: the
	// mid-run recovery probes and the final replay-equals-live-store
	// invariant hold against batched fsyncs and snapshot compactions.
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncGroup})
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	st.AttachWAL(wal)

	// With tracing on, the collector gets a flight recorder and an
	// always-adopt tracer: the schedule already made the 1-in-N
	// sampling decision when it stamped (or withheld) trace context on
	// each session's payload, exactly like a real sending client.
	var rec *trace.Recorder
	var tracer *trace.Tracer
	if cfg.TraceSample > 0 {
		rec = trace.NewRecorder(4 * len(flat))
		tracer = trace.NewTracer(rec, 1)
	}

	coll, err := collector.New(collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("simtest")),
		KeepAliveInterval: -1,
		Clock:             clk,
		Logger:            discardLogger(),
		Tracer:            tracer,
	})
	if err != nil {
		return nil, err
	}

	traced := expectedTraces(sessions, cfg.Only, cfg.TraceSample)

	res := &Result{
		Sessions:   len(sessions),
		Deliveries: len(flat),
		Traced:     len(traced),
	}
	for _, seg := range flat {
		switch {
		case seg.conv != nil:
			res.Conversions++
		case cfg.WireMix && binaryWire(seg):
			res.BinaryDeliveries++
		}
	}
	if cfg.Only != nil {
		res.Sessions = len(cfg.Only)
	}

	meta := audit.UniverseMetadata{Universe: uni}
	eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: meta})
	if err != nil {
		return nil, err
	}

	o := &oracle{
		model:     model,
		store:     st,
		walPath:   walPath,
		snapDir:   dir,
		auditMeta: meta,
		engine:    eng,
		rec:       rec,
		traced:    traced,
		attack:    cfg.Attack,
		disable:   cfg.DisableDetector,
		shards:    cfg.Shards,
	}

	if cfg.Workers > 1 {
		runConcurrent(cfg, flat, coll, o)
	} else {
		h := fnv.New64a()
		fmt.Fprintf(h, "schedule seed=%d sessions=%d only=%v breakdedup=%t breaklegs=%t tracesample=%d attack=%q disable=%q\n",
			cfg.Seed, cfg.Sessions, cfg.Only, cfg.BreakDedup, cfg.BreakLegs, cfg.TraceSample,
			cfg.Attack, cfg.DisableDetector)
		runSerial(cfg, flat, coll, clk, o, h)
		digestStore(h, st)
		res.Digest = fmt.Sprintf("%016x", h.Sum64())
	}

	o.checkFinal()
	res.Violations = o.violations
	res.AdversarialFlags = o.advFlags
	return res, nil
}

// runSerial delivers the schedule one observation at a time on the
// virtual clock, folding every outcome into the trace digest and
// running the oracle's per-delivery and scheduled checks.
func runSerial(cfg Config, flat []segment, coll *collector.Collector,
	clk *simclock.Virtual, o *oracle, h io.Writer) {
	// Schedule snapshot-compactions and mid-run recovery checks at
	// seed-determined points, so durability is probed in the middle of
	// the workload, not just at the end.
	prng := stats.NewRNG(cfg.Seed).Fork("probes")
	snapAt, recoverAt := map[int]bool{}, map[int]bool{}
	if n := len(flat); n > 4 {
		snapAt[1+prng.Intn(n-2)] = true
		snapAt[1+prng.Intn(n-2)] = true
		recoverAt[1+prng.Intn(n-2)] = true
	}

	for di, seg := range flat {
		if d := seg.deliverAt.Sub(clk.Now()); d > 0 {
			clk.Advance(d)
		}
		id, err := deliver(cfg, coll, seg)
		fmt.Fprintf(h, "deliver %d session=%d seg=%d id=%d err=%v\n",
			di, seg.session, seg.index, id, err)
		o.afterDelivery(seg, id, err)
		if snapAt[di] {
			o.snapshotCompact(di)
			o.checkStreamAudit("snapshot")
		}
		if recoverAt[di] {
			// Drain first so the recovery check's streaming replay
			// cross-comparison sees a caught-up live engine.
			o.checkStreamAudit("mid-run")
			o.checkRecovery("mid-run")
		}
	}
}

// runConcurrent partitions sessions across workers (a session's
// segments stay in order on one worker) and delivers them in parallel —
// the phase the -race sweep exercises. Only order-insensitive
// invariants apply afterwards; the digest is a serial-phase artifact.
// The streaming engine consumes the change feed in its goroutine-Run
// mode throughout, so the apply path races real writers under -race;
// the final checks still see it quiescent.
func runConcurrent(cfg Config, flat []segment, coll *collector.Collector, o *oracle) {
	ctx, cancel := context.WithCancel(context.Background())
	engDone := make(chan struct{})
	go func() {
		defer close(engDone)
		o.engine.Run(ctx)
	}()
	defer func() {
		o.engine.WaitCaughtUp(10 * time.Second)
		cancel()
		<-engDone
	}()

	lanes := make([][]segment, cfg.Workers)
	for _, seg := range flat {
		w := seg.session % cfg.Workers
		lanes[w] = append(lanes[w], seg)
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []segment) {
			defer wg.Done()
			for _, seg := range lane {
				id, err := deliver(cfg, coll, seg)
				o.afterDeliveryConcurrent(seg, id, err)
			}
		}(lane)
	}
	wg.Wait()
}

// deliver hands one segment's observation to the collector over the
// session's wire: text sessions pass the decoded payload straight to
// Ingest (how every run delivered before wire mixing existed), binary
// sessions encode to wire bytes and let IngestBinary decode them back —
// the same codec path a real OpBinary beacon exercises. The payload is
// encoded after any BreakDedup or BreakLegs mutation so both wires
// inject the same fault.
func deliver(cfg Config, coll *collector.Collector, seg segment) (int64, error) {
	obs := seg.obs
	if cfg.BreakDedup && seg.index > 0 {
		obs.Payload.Nonce = ""
	}
	if cfg.BreakLegs {
		obs.Payload.Leg = uint8(seg.index)
	}
	if seg.conv != nil {
		return coll.IngestConversion(*seg.conv)
	}
	if cfg.WireMix && binaryWire(seg) {
		return coll.IngestBinary(obs.Payload.EncodeBinary(), obs.RemoteIP, obs.ConnectedAt, obs.Exposure)
	}
	return coll.Ingest(obs)
}

// binaryWire picks the session's wire by hashing its (pre-mutation)
// nonce — stable per session across segments, replays and runs, and
// independent of the schedule RNG so digests stay comparable to
// all-text runs.
func binaryWire(seg segment) bool {
	h := fnv.New32a()
	io.WriteString(h, seg.obs.Payload.Nonce)
	return h.Sum32()&1 == 1
}

// digestStore folds the final store content into the trace digest in
// insertion (ID) order.
func digestStore(h io.Writer, st *store.Store) {
	st.Visit(func(im *store.Impression) bool {
		fmt.Fprintf(h, "rec %d %s %s %s %s %d %d %d %t %.4f %s %s\n",
			im.ID, im.CampaignID, im.CreativeID, im.Publisher, im.Nonce,
			im.Exposure, im.MouseMoves, im.Clicks,
			im.VisibilityMeasured, im.MaxVisibleFraction,
			im.Timestamp.UTC().Format(time.RFC3339Nano), im.UserKey)
		return true
	})
}

// collectorMaxExposure mirrors the collector's default MaxExposure (the
// model must clamp segments exactly as Ingest does).
const collectorMaxExposure = 30 * time.Minute

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}
