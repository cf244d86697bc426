package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/report"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// workload is one named traffic mix. up performs the last step of
// set-up — bringing the tier under test up over an already generated
// dataset — and returns the rig that measures it.
type workload struct {
	name string
	why  string
	up   func(o options, d *dataset) (rig, error)
}

// rig is a tier that is up and ready to be measured. measure runs the
// timed section, fills r, and returns an error if any output is wrong.
type rig interface {
	measure(o options, r *result) error
	close()
}

var workloads = []workload{
	{"wire_direct", "beacons to one collector: the paper's deployment and the base of every hop ratio; wsproto, beacon codec and collector sessions do the work, forwarding tiers none",
		func(o options, d *dataset) (rig, error) { return newWireRig(o, d, kindDirect) }},
	{"wire_gateway", "beacons through the edge gateway's trunk to one collector: adds exactly one hop (session termination, batching, ack/spill), so gateway and trunk changes show here only",
		func(o options, d *dataset) (rig, error) { return newWireRig(o, d, kindGate) }},
	{"wire_sharded", "beacons through the router to 2 collector shards, then one merged report: the only wire path with nonce hashing, trunk pinning, the shard pool and cross-shard skew",
		func(o options, d *dataset) (rig, error) { return newWireRig(o, d, kindShard) }},
	{"ingest_inproc", "no sockets: the whole dataset through Ingest/IngestBinary into collector+store+WAL+stream engine, so the real device-IP working set, ipmeta, store and apply are the whole cost",
		func(o options, d *dataset) (rig, error) { return &ingestRig{d: d}, nil }},
	{"audit_batch", "the frozen paper dataset through batch FullAudit plus render: the read side of store and every audit dimension; bypasses streaming and merge",
		func(o options, d *dataset) (rig, error) { return newAuditRig(d, auditBatch) }},
	{"audit_live", "the same dataset through the streaming engine's Report at quiescence: the incremental use of the audit definitions; bypasses the batch visitors",
		func(o options, d *dataset) (rig, error) { return newAuditRig(d, auditLive) }},
	{"audit_merged", "the same dataset split over 2 shards: export x2, JSON round trip, merge, static report; the only audit path through shardmerge and the export codec",
		func(o options, d *dataset) (rig, error) { return newAuditRig(d, auditMerged) }},
}

// ---- wire_* -------------------------------------------------------

type wireRig struct {
	d    *dataset
	kind string
	topo *topology
}

func newWireRig(o options, d *dataset, kind string) (*wireRig, error) {
	t, err := d.newTopology(kind, o.dir, false)
	if err != nil {
		return nil, err
	}
	return &wireRig{d: d, kind: kind, topo: t}, nil
}

func (w *wireRig) close() {
	if w.topo != nil {
		w.topo.close()
		w.topo = nil
	}
}

// windowLen is how long a wire window is: several collector cycles and
// thousands of sessions, so a window carries its share of every
// periodic cost, with a yardstick reading close on either side.
const windowLen = time.Second

// wireStats is one closed-loop run against one topology.
type wireStats struct {
	windows   []window
	attempted int
	failed    int
	acked     []int         // pool indices whose Report returned nil
	sessions  []float64     // Report call → return in ms, acked sessions only
	quiesce   time.Duration // last ack → every engine caught up
	fetch     time.Duration // merged export fetch (sharded only)
	spillPeak int           // most acked-but-uncommitted impressions seen in the forwarding tier
}

// session is one acked Report as its client logged it.
type session struct {
	end time.Time
	lat time.Duration
}

// runWire drives o.clients closed-loop beacon clients against t for the
// given time: each opens one session at a time, alternating text and
// binary wire by session index, holds zero exposure and closes. Once a
// window the clients are held between sessions while the yardstick
// runs; a window's clock stops for it. The last window ends at the last
// commit, not the last ack.
func (w *wireRig) runWire(o options, t *topology, seconds float64, first int, tracer *trace.Tracer) (*wireStats, error) {
	length := time.Duration(seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), length+30*time.Second)
	defer cancel()
	type clientLog struct {
		acked     []int
		sessions  []session
		attempted int
	}
	logs := make([]clientLog, o.clients)
	var next atomic.Int64
	next.Store(int64(first))
	var gate sync.RWMutex // clients hold it shared for a session; the yardstick takes it whole

	st := &wireStats{}
	var ends []time.Time // ends[i] closes st.windows[i]
	runtime.GC()
	speed := yardstick()
	stored := t.stored()
	committed := stored // what the stores held before this run's sessions
	start := time.Now()
	m := startMeter()
	// cut closes the current window and, with the clients held, reads
	// the yardstick before opening the next.
	cut := func() {
		now := t.stored()
		win := window{sample: m.stop(now - stored)}
		ends = append(ends, time.Now())
		st.spillPeak = max(st.spillPeak, t.spillPending())
		after := yardstick()
		win.speed = (speed + after) / 2
		st.windows = append(st.windows, win)
		speed, stored = after, now
		m = startMeter()
	}
	var wg sync.WaitGroup
	for g := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			wires := [2]*beacon.Client{
				{CollectorURL: t.url, Tracer: tracer},
				{CollectorURL: t.url, Tracer: tracer, Wire: beacon.WireBinary},
			}
			for time.Since(start) < length {
				i := int(next.Add(1) - 1)
				gate.RLock()
				t0 := time.Now()
				err := wires[i%2].Report(ctx, w.d.wirePayload(i), 0)
				end := time.Now()
				gate.RUnlock()
				l.attempted++
				if err == nil || errors.Is(err, net.ErrClosed) {
					// wsproto.Conn.Close writes the close frame, then closes
					// the socket; when the collector's echo is read first the
					// reader has already closed it and Close reports that.
					// The session is complete and commits all the same — the
					// exactly-once check below holds it to that.
					l.acked = append(l.acked, i)
					l.sessions = append(l.sessions, session{end, end.Sub(t0)})
				}
			}
		}(&logs[g])
	}
	clientsDone := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		for {
			select {
			case <-clientsDone:
				return
			case <-tick.C:
				gate.Lock()
				cut()
				gate.Unlock()
			}
		}
	}()
	wg.Wait()
	lastAck := time.Now()
	close(clientsDone)
	<-sampled

	var sessions []session
	for _, l := range logs {
		st.attempted += l.attempted
		st.acked = append(st.acked, l.acked...)
		sessions = append(sessions, l.sessions...)
	}
	st.failed = st.attempted - len(st.acked)
	if err := t.waitCommitted(committed + len(st.acked)); err != nil {
		return nil, err
	}
	cut() // the tail: the last tick to the last commit
	if err := t.waitApplied(); err != nil {
		return nil, err
	}
	st.quiesce = time.Since(lastAck)

	lats := make([][]float64, len(st.windows))
	for _, s := range sessions {
		i := sort.Search(len(ends)-1, func(i int) bool { return !ends[i].Before(s.end) })
		lats[i] = append(lats[i], ms(s.lat))
		st.sessions = append(st.sessions, ms(s.lat))
	}
	for i := range st.windows {
		st.windows[i].opMS = median(lats[i])
	}
	if n := len(st.windows); n > 1 && st.windows[n-1].wall < windowLen/2 {
		st.windows = st.windows[:n-1] // a sliver of a tail is not a window
	}

	if err := checkStores(w.d, t.shards, st.acked); err != nil {
		return nil, err
	}
	var err error
	st.fetch, err = checkReports(w.d, t)
	return st, err
}

// topUp ingests the rest of the pool in-process, each impression on
// the shard its nonce hashes to, so that heap_bytes_per_imp is read at
// the same stored count on every run. Slices and maps grow in steps; at
// whatever count a timed run happens to reach, the steps alone move
// bytes per impression by a tenth.
func (w *wireRig) topUp(from int) error {
	t, d := w.topo, w.d
	for i := from; i < len(d.obs); i++ {
		sh := t.shards[shardmerge.ShardFor(d.obs[i].Payload.Nonce, len(t.shards))]
		if _, err := sh.coll.Ingest(d.obs[i]); err != nil {
			return err
		}
		if i%512 == 0 { // stay inside the engines' feed buffers
			if err := t.waitApplied(); err != nil {
				return err
			}
		}
	}
	return t.waitApplied()
}

func (w *wireRig) measure(o options, r *result) error {
	seconds := o.seconds
	if o.trace {
		seconds /= 2 // an untraced half, then a traced half
	}
	st, err := w.runWire(o, w.topo, seconds, 0, nil)
	if err != nil {
		return err
	}
	r.attempted, r.failed, r.windows = st.attempted, st.failed, st.windows
	if err := w.topUp(st.attempted); err != nil {
		return err
	}
	r.heapPerImp = float64(liveHeap()-r.heapBase) / float64(w.topo.stored())
	if !o.trace {
		return nil
	}
	untraced := st
	w.close()
	if w.topo, err = w.d.newTopology(w.kind, o.dir, true); err != nil {
		return err
	}
	st, err = w.runWire(o, w.topo, seconds, st.attempted, trace.NewTracer(nil, 1))
	if err != nil {
		return err
	}
	r.attempted += st.attempted
	r.failed += st.failed
	wireLayers(r, w.topo, st, untraced)
	return nil
}

// ---- ingest_inproc ------------------------------------------------

type ingestRig struct{ d *dataset }

func (g *ingestRig) close() {}

// ingestRound is how many impressions the clients push between drains
// of the streaming engine: under store.DefaultFeedBuffer, so the feed
// can never drop the engine's subscription and the apply cost is paid
// deterministically, by the harness goroutine, in the drain.
const ingestRound = 1000

// pass pushes the whole pool through a fresh collector — Ingest for
// even indices, IngestBinary over the pre-encoded frame for odd — in
// rounds split evenly between o.clients goroutines, draining the
// streaming engine after each round.
func (g *ingestRig) pass(o options, r *result, id int, traced, last bool) error {
	d := g.d
	sh, err := d.newShard(o.dir, id, traced)
	if err != nil {
		return err
	}
	defer func() {
		sh.stop()
		_ = os.Remove(sh.wal.Path())
	}()
	var failed atomic.Int64
	ingest := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ob := d.obs[i]
			var err error
			if i%2 == 1 {
				_, err = sh.coll.IngestBinary(d.frames[i], ob.RemoteIP, ob.ConnectedAt, ob.Exposure)
			} else {
				if tr := sh.coll.Tracer().Start(); tr != nil {
					// The harness is the beacon sender here, as
					// campaign.Driver is on adsim's direct path.
					tr.Stage(trace.StageBeaconSend)
					ob.Trace = tr
				}
				_, err = sh.coll.Ingest(ob)
			}
			if err != nil {
				failed.Add(1)
			}
		}
	}
	// A pass is cut into equal windows of about forty rounds: 40,000
	// impressions, ≈ 0.7 s, three to a pass of the paper's pool, with a
	// yardstick reading between them.
	nRounds := (len(d.obs) + ingestRound - 1) / ingestRound
	perWindow := (nRounds + max(1, nRounds/40) - 1) / max(1, nRounds/40)
	var rounds []float64
	from, before := 0, failed.Load()
	speed := yardstick()
	m := startMeter()
	for lo := 0; lo < len(d.obs); lo += ingestRound {
		hi := min(lo+ingestRound, len(d.obs))
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < o.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ingest(lo+(hi-lo)*c/o.clients, lo+(hi-lo)*(c+1)/o.clients)
			}(c)
		}
		wg.Wait()
		sh.eng.Drain()
		rounds = append(rounds, ms(time.Since(t0))*ingestRound/float64(hi-lo))
		if len(rounds) == perWindow || hi == len(d.obs) {
			win := window{sample: m.stop(hi - from - int(failed.Load()-before)), opMS: median(rounds)}
			after := yardstick()
			win.speed = (speed + after) / 2
			r.windows = append(r.windows, win)
			speed, from, before, rounds = after, hi, failed.Load(), rounds[:0]
			m = startMeter()
		}
	}
	r.attempted += len(d.obs)
	r.failed += int(failed.Load())
	r.heapPerImp = float64(liveHeap()-r.heapBase) / float64(sh.st.Len())

	if failed.Load() == 0 {
		acked := make([]int, len(d.obs))
		for i := range acked {
			acked[i] = i
		}
		if err := checkStores(d, []*shard{sh}, acked); err != nil {
			return err
		}
	}
	if last {
		if _, err := checkReports(d, &topology{kind: "in-process", shards: []*shard{sh}}); err != nil {
			return err
		}
	}
	if traced {
		pipelineLayers(r, []*shard{sh}, "")
	}
	return nil
}

func (g *ingestRig) measure(o options, r *result) error {
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// One untraced pass, one traced: their ratio is the overhead.
		if err := g.pass(o, r, 0, false, false); err != nil {
			return err
		}
		untraced := r.windows
		if err := g.pass(o, r, 1, true, true); err != nil {
			return err
		}
		r.layer["trace.overhead_share"] = 1 - over(r.windows[len(untraced):], window.rate)/over(untraced, window.rate)
		r.windows = untraced
		gcLayers(r, total(untraced))
		return nil
	}
	var mean time.Duration
	for id := 0; ; id++ {
		// The pass that would overrun the budget is the last one; at
		// least two run, so that one starts from a heap a pass has used.
		last := id >= 1 && time.Since(start)+mean*time.Duration(id+2)/time.Duration(id+1) > budget
		if err := g.pass(o, r, id, false, last); err != nil {
			return err
		}
		mean = time.Since(start) / time.Duration(id+1)
		if last {
			return nil
		}
	}
}

// ---- audit_* ------------------------------------------------------

const (
	auditBatch  = "batch"
	auditLive   = "live"
	auditMerged = "merged"
)

// auditRig holds the frozen dataset in the shape one report path reads
// it from: a store and an Auditor (batch), a store and a primed engine
// (live), or two shard stores and their engines (merged).
type auditRig struct {
	d       *dataset
	kind    string
	stores  []*store.Store
	engines []*streamaudit.Engine
	aud     *audit.Auditor
}

// copyStore replays src into n stores, each record to the store its ID
// hashes to and each conversion to the store its user key hashes to —
// the way a router would have spread them.
func copyStore(src *store.Store, n int) ([]*store.Store, error) {
	out := make([]*store.Store, n)
	for i := range out {
		out[i] = store.New()
	}
	var err error
	src.Visit(func(im *store.Impression) bool {
		// In-process records carry no nonce; the record ID is the
		// deterministic stand-in for the session key the router hashes.
		_, err = out[shardmerge.ShardFor(strconv.FormatInt(im.ID, 10), n)].Insert(*im)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range src.Conversions("") {
		if _, err := out[shardmerge.ShardFor(c.UserKey, n)].InsertConversion(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func newAuditRig(d *dataset, kind string) (*auditRig, error) {
	a := &auditRig{d: d, kind: kind}
	n := 1
	if kind == auditMerged {
		n = 2
	}
	var err error
	if a.stores, err = copyStore(d.frozen, n); err != nil {
		return nil, err
	}
	if kind == auditBatch {
		if a.aud, err = audit.New(a.stores[0], d.meta); err != nil {
			return nil, err
		}
		a.aud.Instrument(telemetry.NewRegistry())
		return a, nil
	}
	for _, st := range a.stores {
		eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: d.meta, Keywords: d.keywords})
		if err != nil {
			return nil, err
		}
		eng.Drain()
		a.engines = append(a.engines, eng)
	}
	return a, nil
}

func (a *auditRig) close() {}

func (a *auditRig) stored() int {
	n := 0
	for _, st := range a.stores {
		n += st.Len()
	}
	return n
}

// report produces the rig's report once, the way its path does.
func (a *auditRig) report() (*audit.FullReport, error) {
	switch a.kind {
	case auditBatch:
		rep, err := a.aud.FullAudit(a.d.inputs)
		if err != nil {
			return nil, err
		}
		return rep, report.Full(io.Discard, a.d.campaigns, rep)
	case auditLive:
		return a.engines[0].Report(a.d.inputs)
	}
	exports := make([]*streamaudit.Export, len(a.engines))
	for i, eng := range a.engines {
		// The JSON round trip is the wire the router fetches exports over.
		b, err := json.Marshal(eng.Export())
		if err != nil {
			return nil, err
		}
		exports[i] = &streamaudit.Export{}
		if err := json.Unmarshal(b, exports[i]); err != nil {
			return nil, err
		}
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: a.d.meta}, shardmerge.Merge(exports))
	if err != nil {
		return nil, err
	}
	return eng.Report(a.d.inputs)
}

// reference is the report the rig's own must deep-equal: the serial
// batch audit over the shard-order union of its stores.
func (a *auditRig) reference() (*audit.FullReport, error) {
	u, err := unionStore(a.stores)
	if err != nil {
		return nil, err
	}
	aud, err := audit.New(u, a.d.meta)
	if err != nil {
		return nil, err
	}
	return aud.FullAuditSerial(a.d.inputs)
}

func (a *auditRig) measure(o options, r *result) error {
	r.heapPerImp = float64(liveHeap()-r.heapBase) / float64(a.stored())
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	var got *audit.FullReport
	speed := yardstick()
	for n := 0; n < 5 || time.Since(start) < budget; n++ {
		runtime.GC() // outside the span: every report starts from the same heap
		m := startMeter()
		rep, err := a.report()
		if err != nil {
			return err
		}
		win := window{sample: m.stop(a.stored())}
		after := yardstick()
		win.opMS, win.speed = ms(win.wall), (speed+after)/2
		speed, got = after, rep
		r.attempted++
		r.windows = append(r.windows, win)
	}
	if o.trace {
		gcLayers(r, total(r.windows))
	}
	want, err := a.reference()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("audit_%s: report diverges from the serial batch audit of the same records", a.kind)
	}
	return nil
}
