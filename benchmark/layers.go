package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"adaudit"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/report"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// perLayer is every per-layer metric a traced run reports, grouped by
// the internal/ package it belongs to. A metric whose layer is not on
// the traced workload's path (gateway.* on wire_direct, say) reads 0.
// README.md maps each to the end-to-end metric it should move.
var perLayer = unitsOf(
	"ns", "beacon.encode_text_ns", "beacon.decode_text_ns", "beacon.encode_binary_ns", "beacon.decode_binary_ns",
	"count", "beacon.decode_text_allocs", "beacon.decode_binary_allocs", "beacon.session_allocs",
	"ms", "beacon.session_ms_p99",
	"us", "wsproto.handshake_us_p50",
	"count", "wsproto.handshake_allocs",
	"ns", "wsproto.write_frame_ns", "wsproto.read_frame_ns",
	"ns", "trunk.append_frame_ns", "trunk.decode_batch_ns_per_frame",
	"count", "trunk.frames_per_batch",
	"B", "trunk.batch_bytes_p50",
	"us", "gateway.hop_us_p50", "gateway.hop_us_p99",
	"ms", "gateway.forward_ms_p50",
	"count", "gateway.spill_peak", "gateway.replays", "gateway.queue_drops", "gateway.breaker_opens",
	"us", "router.hop_us_p50", "router.hop_us_p99",
	"ms", "router.forward_ms_p50",
	"count", "router.shard_skew", "router.spill_peak", "router.replays", "router.queue_drops", "router.relay_drops",
	"ns", "collector.ingest_ns", "collector.ingest_binary_ns",
	"count", "collector.ingest_allocs", "collector.ingest_binary_allocs", "collector.dedup_hits", "collector.rejects",
	"us", "collector.decode_us_p50", "collector.enrich_us_p50", "collector.commit_us_p50",
	"ns", "ipmeta.lookup_ns", "ipmeta.classify_ns", "ipmeta.pseudonym_ns",
	"ns", "store.insert_ns", "store.wal_append_ns", "store.visit_ns_per_imp", "store.visit_campaign_ns_per_imp",
	"count", "store.insert_allocs", "store.feed_drops",
	"B", "store.wal_bytes_per_imp", "store.heap_bytes_per_imp",
	"us", "store.feed_publish_us_p50",
	"ns", "streamaudit.apply_ns",
	"count", "streamaudit.apply_allocs", "streamaudit.apply_steady_allocs", "streamaudit.resyncs",
	"us", "streamaudit.lag_us_p50", "streamaudit.lag_us_p99",
	"ms", "streamaudit.quiesce_ms", "streamaudit.export_ms",
	"B", "streamaudit.export_bytes", "streamaudit.state_heap_bytes_per_imp",
	"ms", "shardmerge.merge_ms", "shardmerge.static_report_ms", "shardmerge.fetch_ms",
	"ms", "audit.brand_safety_ms", "audit.context_ms", "audit.popularity_ms", "audit.viewability_ms", "audit.frequency_ms",
	"audit.fraud_ms", "audit.sellers_ms", "audit.pooling_ms", "audit.behavior_ms",
	"count", "audit.brand_safety_allocs", "audit.context_allocs", "audit.popularity_allocs", "audit.viewability_allocs",
	"audit.frequency_allocs", "audit.fraud_allocs", "audit.sellers_allocs", "audit.pooling_allocs", "audit.behavior_allocs",
	"audit.full_audit_allocs", "audit.parallel_speedup",
	"ms", "semsim.compile_ms", "report.render_ms",
	"ns", "semsim.relevant_ns",
	"ms", "publisher.universe_ms", "ipmeta.universe_ms", "adnet.deliver_ms", "campaign.run_all_ms",
	"us", "pipeline.send_to_apply_us_p50", "pipeline.send_to_apply_us_p99",
	"count", "trace.overhead_share", "gc.cycles", "gc.cpu_share",
	"ms", "gc.pause_total_ms",
)

// unitsOf reads a flat list in which a unit applies to the names after
// it, until the next unit.
func unitsOf(list ...string) []metric {
	var out []metric
	unit := ""
	for _, s := range list {
		if !strings.Contains(s, ".") {
			unit = s
			continue
		}
		better := "lower"
		if s == "audit.parallel_speedup" || s == "trunk.frames_per_batch" {
			better = "higher"
		}
		out = append(out, metric{name: s, unit: unit, better: better})
	}
	return out
}

// committed pairs a per-layer metric with the number the repository
// committed for the same measurement when this benchmark was written.
// At seed 1 on the full universe a traced run prints how far apart they
// are. It is advice, not a check: on the commit that added the
// benchmark a gap meant the harness measured something else; later, it
// means the code changed.
var committed = []struct {
	metric string
	want   float64
	within float64 // relative; 0 = equal after rounding to a whole count
	source string
}{
	{"audit.full_audit_allocs", 361164, 0.01, "BENCH_audit.json BenchmarkFullAuditParallel allocs/op"},
	{"collector.ingest_binary_allocs", 1, 0, "BENCH_gateway.json BenchmarkIngestBinary allocs/op"},
	{"beacon.session_allocs", 204, 0.02, "BENCH_gateway.json BenchmarkWebSocketSession allocs/op"},
	{"streamaudit.apply_steady_allocs", 0, 0, "BENCH_stream.json BenchmarkStreamApply allocs/op"},
}

// selfValidate prints the comparison.
func selfValidate(r *result) {
	fmt.Println("\nself-validation against numbers the repository commits:")
	for _, c := range committed {
		got := r.layer[c.metric]
		agree := math.Abs(got-c.want) <= c.within*c.want
		if c.within == 0 {
			agree = math.Round(got) == c.want
		}
		verdict := "agrees"
		if !agree {
			verdict = "DISAGREES"
		}
		fmt.Printf("  %-34s %12.3f  committed %9.0f (%s): %s\n", c.metric, got, c.want, c.source, verdict)
	}
}

// ---- spans --------------------------------------------------------

// span is one entry of the harness's own trace: a call into one layer's
// public functions, recorded from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`    // shared by every span of one benchmark run
	Name   string `json:"name"`
	start  time.Time
	end    time.Time
}

// spanLog keeps spans in memory until the run ends. It is used from
// the harness goroutine only.
type spanLog struct {
	run   string
	spans []span
}

// do records fn as a child of parent and returns the new span's id.
func (l *spanLog) do(parent int, name string, fn func()) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: l.run, Name: name, start: time.Now()})
	fn()
	l.spans[id-1].end = time.Now()
	return id
}

// writeChrome writes the pipeline traces (through trace.WriteChrome,
// as /api/trace/export does) and the harness spans as one Chrome
// trace-event document.
func (l *spanLog) writeChrome(path string, pipeline []trace.Snapshot) error {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, pipeline); err != nil {
		return err
	}
	var doc struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return err
	}
	for _, s := range l.spans {
		ev, err := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 2, "tid": 1,
			"ts":   float64(s.start.UnixNano()) / 1e3,
			"dur":  float64(s.end.Sub(s.start)) / 1e3,
			"args": s,
		})
		if err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- what a traced workload run yields ----------------------------

// stageDeltas returns, in microseconds, to−from for every finished
// trace that carries both stages.
func stageDeltas(snaps []trace.Snapshot, from, to string) []float64 {
	var out []float64
	for _, s := range snaps {
		a, b := s.StageOffset(from), s.StageOffset(to)
		if a >= 0 && b >= a {
			out = append(out, float64(b-a)/float64(time.Microsecond))
		}
	}
	return out
}

// pipelineLayers turns the shards' flight recorders into the per-stage
// numbers; hop names the forwarding tier ("gateway", "router" or "").
func pipelineLayers(r *result, shards []*shard, hop string) {
	var snaps []trace.Snapshot
	for _, sh := range shards {
		snaps = append(snaps, sh.rec.Recent(0)...)
	}
	r.pipeline = snaps
	put := func(name, from, to string, q float64) {
		if ds := stageDeltas(snaps, from, to); len(ds) > 0 {
			r.layer[name] = quantile(ds, q)
		}
	}
	put("collector.decode_us_p50", trace.StageWireRecv, trace.StageDecode, 0.5)
	put("collector.enrich_us_p50", trace.StageDecode, trace.StageEnrich, 0.5)
	put("collector.commit_us_p50", trace.StageEnrich, trace.StageCommit, 0.5)
	put("store.feed_publish_us_p50", trace.StageWAL, trace.StageFeed, 0.5)
	put("streamaudit.lag_us_p50", trace.StageFeed, trace.StageApply, 0.5)
	put("streamaudit.lag_us_p99", trace.StageFeed, trace.StageApply, 0.99)
	put("pipeline.send_to_apply_us_p50", trace.StageBeaconSend, trace.StageApply, 0.5)
	put("pipeline.send_to_apply_us_p99", trace.StageBeaconSend, trace.StageApply, 0.99)
	if hop != "" {
		// The router stamps its receive as gateway_recv too (ROADMAP
		// item 5); on wire_sharded read it as the router's.
		put(hop+".hop_us_p50", trace.StageGatewayRecv, trace.StageWireRecv, 0.5)
		put(hop+".hop_us_p99", trace.StageGatewayRecv, trace.StageWireRecv, 0.99)
	}
	for _, sh := range shards {
		r.layer["streamaudit.resyncs"] += float64(sh.eng.Resyncs())
		r.layer["store.feed_drops"] += float64(sh.st.FeedDrops())
		reg := sh.coll.Telemetry()
		r.layer["collector.dedup_hits"] += seriesSum(reg, "adaudit_collector_dedup_hits_total")
		r.layer["collector.rejects"] += seriesSum(reg, "adaudit_collector_rejected_total")
	}
}

// seriesSum adds up every series of a counter or gauge family.
func seriesSum(reg *telemetry.Registry, name string) float64 {
	sum := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// seriesQuantile merges every series of a histogram family (they share
// bounds) and returns its q-quantile.
func seriesQuantile(reg *telemetry.Registry, name string, q float64) float64 {
	var merged *telemetry.HistogramSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name != name || s.Hist == nil {
			continue
		}
		if merged == nil {
			h := *s.Hist
			h.Counts = append([]uint64(nil), h.Counts...)
			merged = &h
			continue
		}
		for i := range s.Hist.Counts {
			merged.Counts[i] += s.Hist.Counts[i]
		}
		merged.Count += s.Hist.Count
		merged.Sum += s.Hist.Sum
	}
	if merged == nil {
		return 0
	}
	return merged.Quantile(q)
}

func wireLayers(r *result, t *topology, st, untraced *wireStats) {
	hop := ""
	var reg *telemetry.Registry
	prefix := ""
	switch {
	case t.gw != nil:
		hop, reg, prefix = "gateway", t.gw.Telemetry(), "adaudit_gateway_"
	case t.rt != nil:
		hop, reg, prefix = "router", t.rt.Telemetry(), "adaudit_router_shard_"
	}
	pipelineLayers(r, t.shards, hop)
	r.layer["beacon.session_ms_p99"] = quantile(st.sessions, 0.99)
	r.layer["streamaudit.quiesce_ms"] = ms(st.quiesce)
	r.layer["shardmerge.fetch_ms"] = ms(st.fetch)
	r.layer["trace.overhead_share"] = 1 - over(st.windows, window.rate)/over(untraced.windows, window.rate)
	gcLayers(r, total(untraced.windows))
	if reg == nil {
		return
	}
	if batches := seriesSum(reg, prefix+"trunk_batches_total"); batches > 0 {
		r.layer["trunk.frames_per_batch"] = seriesSum(reg, prefix+"commits_total") / batches
	}
	r.layer["trunk.batch_bytes_p50"] = seriesQuantile(reg, prefix+"batch_bytes", 0.5)
	r.layer[hop+".forward_ms_p50"] = seriesQuantile(reg, prefix+"forward_seconds", 0.5) * 1e3
	r.layer[hop+".spill_peak"] = float64(st.spillPeak)
	r.layer[hop+".replays"] = seriesSum(reg, prefix+"replays_total")
	r.layer[hop+".queue_drops"] = seriesSum(reg, prefix+"queue_drops_total")
	if t.gw != nil {
		r.layer["gateway.breaker_opens"] = seriesSum(reg, prefix+"breaker_opens_total")
		return
	}
	r.layer["router.relay_drops"] = seriesSum(reg, "adaudit_router_relay_drops_total")
	most, total := 0, 0
	for _, sh := range t.shards {
		most = max(most, sh.st.Len())
		total += sh.st.Len()
	}
	r.layer["router.shard_skew"] = float64(most) * float64(len(t.shards)) / float64(total)
}

func gcLayers(r *result, s sample) {
	r.layer["gc.cycles"] = float64(s.gcCycles)
	r.layer["gc.pause_total_ms"] = ms(s.gcPause)
	if s.cpu > 0 {
		r.layer["gc.cpu_share"] = s.gcCPU.Seconds() / s.cpu.Seconds()
	}
}

// gcCPUSeconds is the runtime's own account of CPU spent collecting.
func gcCPUSeconds() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// ---- the layer pass -----------------------------------------------

// layerPass calls each layer's public functions directly, on the same
// generated inputs the workloads use, one harness span per call site.
// It is the same on every workload, so a layer's own cost can be read
// next to whichever end-to-end number it is suspected of moving.
type layerPass struct {
	o    options
	d    *dataset
	r    *result
	log  *spanLog
	root int
}

// loop times n calls of fn under one span and returns ns and heap
// allocations per call.
func (lp *layerPass) loop(name string, n int, fn func(i int)) (ns, allocs float64) {
	runtime.GC()
	var m *meter
	var s sample
	lp.log.do(lp.root, name, func() {
		m = startMeter()
		for i := 0; i < n; i++ {
			fn(i)
		}
		s = m.stop(n)
	})
	return float64(s.wall) / float64(n), float64(s.mallocs) / float64(n)
}

// once times a single call in milliseconds.
func (lp *layerPass) once(name string, fn func()) (ms, allocs float64) {
	ns, allocs := lp.loop(name, 1, func(int) { fn() })
	return ns / 1e6, allocs
}

// must aborts the layer pass: every call here runs on inputs the
// workloads already pushed through the same functions.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("layer pass: %w", err))
	}
}

func runLayerPass(o options, d *dataset, r *result, log *spanLog) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			panic(p)
		}
	}()
	lp := &layerPass{o: o, d: d, r: r, log: log}
	lp.root = log.do(0, "layer_pass", func() {})
	lp.codecs()
	lp.sessions()
	lp.ingest()
	lp.storeAndStream()
	lp.audits()
	lp.generators()
	log.spans[lp.root-1].end = time.Now()
	return nil
}

// sub is the prefix of the pool the per-call loops walk: large enough
// to average over the publisher and device mix, small enough to keep
// the pass to a few seconds.
func (lp *layerPass) sub() int { return min(len(lp.d.obs), 20000) }

func (lp *layerPass) codecs() {
	d, n, L := lp.d, lp.sub(), lp.r.layer
	text := make([]string, n)
	L["beacon.encode_text_ns"], _ = lp.loop("beacon.Payload.Encode", n, func(i int) { text[i] = d.obs[i].Payload.Encode() })
	L["beacon.decode_text_ns"], L["beacon.decode_text_allocs"] = lp.loop("beacon.Decode", n, func(i int) {
		_, err := beacon.Decode(text[i])
		must(err)
	})
	bin := make([][]byte, n)
	L["beacon.encode_binary_ns"], _ = lp.loop("beacon.Payload.EncodeBinary", n, func(i int) { bin[i] = d.obs[i].Payload.EncodeBinary() })
	L["beacon.decode_binary_ns"], L["beacon.decode_binary_allocs"] = lp.loop("beacon.DecodeBinary", n, func(i int) {
		_, err := beacon.DecodeBinary(bin[i])
		must(err)
	})

	var wire bytes.Buffer
	L["wsproto.write_frame_ns"], _ = lp.loop("wsproto.WriteFrame", n, func(i int) {
		must(wsproto.WriteFrame(&wire, wsproto.Frame{Fin: true, Opcode: wsproto.OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte(text[i])}))
	})
	rd := bytes.NewReader(wire.Bytes())
	L["wsproto.read_frame_ns"], _ = lp.loop("wsproto.ReadFrame", n, func(int) {
		_, err := wsproto.ReadFrame(rd, 16<<10)
		must(err)
	})

	const perBatch = 64
	var batch []byte
	batches := make([][]byte, 0, n/perBatch+1)
	L["trunk.append_frame_ns"], _ = lp.loop("trunk.AppendFrame", n, func(i int) {
		batch = trunk.AppendFrame(batch, trunk.Frame{
			Type: trunk.Commit, Stream: uint64(i), RemoteIP: d.obs[i].RemoteIP.String(),
			ConnectedAt: d.obs[i].ConnectedAt.UnixNano(), Payload: text[i], Exposure: d.obs[i].Exposure,
		})
		if i%perBatch == perBatch-1 || i == n-1 {
			batches = append(batches, batch)
			batch = nil
		}
	})
	ns, _ := lp.loop("trunk.DecodeBatch", len(batches), func(i int) {
		_, err := trunk.DecodeBatch(batches[i])
		must(err)
	})
	L["trunk.decode_batch_ns_per_frame"] = ns * float64(len(batches)) / float64(n)
}

// bareCollector is the ingest funnel alone: no telemetry, WAL or
// engine — the configuration the repo's own BenchmarkIngest* and
// BenchmarkWebSocketSession measure, so their committed numbers check
// this harness.
func (lp *layerPass) bareCollector() *collector.Collector {
	c, err := collector.New(collector.Config{
		Store:            store.New(),
		IPDB:             lp.d.ws.IPs.DB,
		Classifier:       lp.d.classifier(),
		Anonymizer:       ipmeta.NewAnonymizer([]byte(trunkToken)),
		DisableTelemetry: true,
		Logger:           quiet,
	})
	must(err)
	return c
}

func (lp *layerPass) sessions() {
	L := lp.r.layer
	c := lp.bareCollector()
	srv, err := collector.NewServer(c, "127.0.0.1:0")
	must(err)
	defer serveUntilStopped(srv.Serve, nil)()
	ctx := context.Background()

	const n = 2000
	dials := make([]float64, 0, n)
	var dialer wsproto.Dialer
	_, L["wsproto.handshake_allocs"] = lp.loop("wsproto.Dialer.Dial", n, func(int) {
		t0 := time.Now()
		conn, _, err := dialer.Dial(ctx, srv.BeaconURL())
		must(err)
		dials = append(dials, float64(time.Since(t0))/float64(time.Microsecond))
		_ = conn.Close(wsproto.CloseNormal, "") // a failed close frame changes nothing measured here
	})
	L["wsproto.handshake_us_p50"] = median(dials)

	// One empty session, exactly BenchmarkWebSocketSession's.
	cl := &beacon.Client{CollectorURL: srv.BeaconURL()}
	p := beacon.Payload{CampaignID: "bench", CreativeID: "cr", PageURL: "http://pub.es/p", UserAgent: "Mozilla/5.0 Chrome/49.0"}
	base := c.Metrics.Ingested.Load()
	_, L["beacon.session_allocs"] = lp.loop("beacon.Client.Open+Close", n, func(int) {
		sess, err := cl.Open(ctx, p)
		must(err)
		if err := sess.Close(); !errors.Is(err, net.ErrClosed) {
			must(err) // net.ErrClosed: the close raced the collector's echo; see runWire
		}
	})
	waitFor(10*time.Second, func() bool { return c.Metrics.Ingested.Load() >= base+n })
}

func (lp *layerPass) ingest() {
	d, L := lp.d, lp.r.layer
	// Steady state, as BenchmarkIngestBinary defines it: a 1,000-payload
	// working set, nonce-free so a repeat is a new impression and not a
	// dedup merge, caches warmed by one lap.
	const set = 1000
	obs := make([]collector.Observation, set)
	frames := make([][]byte, set)
	for i := range obs {
		obs[i] = d.obs[i%len(d.obs)]
		obs[i].Payload.Nonce = ""
		frames[i] = obs[i].Payload.EncodeBinary()
	}
	c := lp.bareCollector()
	text := func(i int) {
		_, err := c.Ingest(obs[i%set])
		must(err)
	}
	binary := func(i int) {
		ob := &obs[i%set]
		_, err := c.IngestBinary(frames[i%set], ob.RemoteIP, ob.ConnectedAt, ob.Exposure)
		must(err)
	}
	for i := 0; i < set; i++ {
		text(i)
		binary(i)
	}
	const n = 100000
	L["collector.ingest_ns"], L["collector.ingest_allocs"] = lp.loop("collector.Ingest", n, text)
	L["collector.ingest_binary_ns"], L["collector.ingest_binary_allocs"] = lp.loop("collector.IngestBinary", n, binary)

	ips, cls := d.ws.IPs, d.classifier()
	anon := ipmeta.NewAnonymizer([]byte(trunkToken))
	m := lp.sub()
	L["ipmeta.lookup_ns"], _ = lp.loop("ipmeta.DB.Lookup", m, func(i int) { ips.DB.Lookup(d.obs[i].RemoteIP) })
	L["ipmeta.classify_ns"], _ = lp.loop("ipmeta.Classifier.Classify", m, func(i int) { cls.Classify(d.obs[i].RemoteIP) })
	L["ipmeta.pseudonym_ns"], _ = lp.loop("ipmeta.Anonymizer.Pseudonym", m, func(i int) { anon.Pseudonym(d.obs[i].RemoteIP) })
}

func (lp *layerPass) storeAndStream() {
	d, L := lp.d, lp.r.layer
	var recs []store.Impression
	d.frozen.Visit(func(im *store.Impression) bool {
		recs = append(recs, *im)
		return true
	})
	n := len(recs)
	insertAll := func(st *store.Store) func(int) {
		return func(i int) {
			_, err := st.Insert(recs[i])
			must(err)
		}
	}
	base := liveHeap()
	bare := store.New()
	L["store.insert_ns"], L["store.insert_allocs"] = lp.loop("store.Insert", n, insertAll(bare))
	L["store.heap_bytes_per_imp"] = float64(liveHeap()-base) / float64(n)

	logged := store.New()
	wal, err := store.OpenWAL(filepath.Join(lp.o.dir, "layer.wal"), store.WALOptions{Policy: store.SyncOS})
	must(err)
	logged.AttachWAL(wal)
	withWAL, _ := lp.loop("store.Insert+WAL", n, insertAll(logged))
	L["store.wal_append_ns"] = withWAL - L["store.insert_ns"]
	if fi, err := os.Stat(wal.Path()); err == nil {
		L["store.wal_bytes_per_imp"] = float64(fi.Size()) / float64(n)
	}
	must(wal.Close())
	_ = os.Remove(wal.Path())

	ns, _ := lp.loop("store.Visit", 1, func(int) { bare.Visit(func(*store.Impression) bool { return true }) })
	L["store.visit_ns_per_imp"] = ns / float64(n)
	ns, _ = lp.loop("store.VisitCampaign", 1, func(int) {
		for _, c := range d.campaigns {
			bare.VisitCampaign(c.ID, func(*store.Impression) bool { return true })
		}
	})
	L["store.visit_campaign_ns_per_imp"] = ns / float64(n)

	// Apply: the engine follows an empty store's feed; rounds of inserts
	// are published untimed and drained timed, as BenchmarkStreamApply does.
	fed := store.New()
	base = liveHeap()
	eng, err := streamaudit.New(streamaudit.Config{Store: fed, Meta: d.meta, Keywords: d.keywords})
	must(err)
	applyLap := func(name string, set int) sample {
		var apply sample
		lp.log.do(lp.root, name, func() {
			for lo := 0; lo < n; lo += ingestRound {
				for i := lo; i < min(lo+ingestRound, n); i++ {
					_, err := fed.Insert(recs[i%set])
					must(err)
				}
				m := startMeter()
				applied, resynced := eng.Drain()
				if resynced {
					must(fmt.Errorf("streaming engine resynced during the apply loop"))
				}
				apply.add(m.stop(applied))
			}
		})
		return apply
	}
	apply := applyLap("streamaudit.Engine.Drain", n)
	L["streamaudit.apply_ns"] = float64(apply.wall) / float64(apply.imps)
	L["streamaudit.apply_allocs"] = float64(apply.mallocs) / float64(apply.imps)
	fedHeap := liveHeap() - base
	L["streamaudit.state_heap_bytes_per_imp"] = float64(fedHeap)/float64(n) - L["store.heap_bytes_per_imp"]
	// The paper dataset gives most users one impression, so applying it
	// allocates per user. BenchmarkStreamApply's 40 users are a steady
	// state; a lap that cycles 1,000 records is the same one.
	again := applyLap("streamaudit.Engine.Drain (1,000-record cycle)", 1000)
	L["streamaudit.apply_steady_allocs"] = float64(again.mallocs) / float64(again.imps)

	var exp *streamaudit.Export
	L["streamaudit.export_ms"], _ = lp.once("streamaudit.Engine.Export", func() { exp = eng.Export() })
	b, err := json.Marshal(exp)
	must(err)
	L["streamaudit.export_bytes"] = float64(len(b))

	var merged *streamaudit.Export
	L["shardmerge.merge_ms"], _ = lp.once("shardmerge.Merge", func() { merged = shardmerge.Merge([]*streamaudit.Export{exp}) })
	L["shardmerge.static_report_ms"], _ = lp.once("streamaudit.NewStatic+Report", func() {
		st, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: d.meta}, merged)
		must(err)
		_, err = st.Report(d.inputs)
		must(err)
	})
}

func (lp *layerPass) audits() {
	d, L := lp.d, lp.r.layer
	aud, err := audit.New(d.frozen, d.meta)
	must(err)
	each := func(fn func(in audit.CampaignInput)) func() {
		return func() {
			for _, in := range d.inputs {
				fn(in)
			}
		}
	}
	dims := []struct {
		name string
		fn   func()
	}{
		{"brand_safety", each(func(in audit.CampaignInput) { aud.BrandSafety(in.ID, in.Report) })},
		{"context", each(func(in audit.CampaignInput) {
			_, err := aud.Context(in.ID, in.Keywords, in.Report)
			must(err)
		})},
		{"popularity", each(func(in audit.CampaignInput) {
			_, err := aud.Popularity(in.ID, 10, 10_000_000)
			must(err)
		})},
		{"viewability", each(func(in audit.CampaignInput) { aud.Viewability(in.ID) })},
		{"frequency", func() { aud.Frequency() }},
		{"fraud", each(func(in audit.CampaignInput) { aud.Fraud(in.ID) })},
		{"sellers", each(func(in audit.CampaignInput) { aud.SellerAudit(in.ID, in.Report) })},
		{"pooling", each(func(in audit.CampaignInput) { aud.Pooling(in.ID, in.Report) })},
		{"behavior", each(func(in audit.CampaignInput) { aud.Behavior(in.ID) })},
	}
	for _, dim := range dims {
		dim.fn() // first call fills the auditor's scratch pools
		L["audit."+dim.name+"_ms"], L["audit."+dim.name+"_allocs"] = lp.once("audit.Auditor."+dim.name, dim.fn)
	}
	var rep *audit.FullReport
	serial, _ := lp.once("audit.Auditor.FullAuditSerial", func() {
		rep, err = aud.FullAuditSerial(d.inputs)
		must(err)
	})
	parallel, allocs := lp.once("audit.Auditor.FullAudit", func() {
		_, err = aud.FullAudit(d.inputs)
		must(err)
	})
	L["audit.parallel_speedup"] = serial / parallel
	L["audit.full_audit_allocs"] = allocs
	L["report.render_ms"], _ = lp.once("report.Full", func() { must(report.Full(io.Discard, d.campaigns, rep)) })

	m := d.ws.Network.Matcher()
	kw := d.campaigns[0].Keywords
	L["semsim.compile_ms"], _ = lp.once("semsim.Matcher.Compile", func() { m.Compile(kw) })
	q := m.Compile(kw)
	pubs := d.ws.Publishers
	L["semsim.relevant_ns"], _ = lp.loop("semsim.Query.Relevant", lp.sub(), func(i int) {
		p := pubs.At(i % pubs.Len())
		q.Relevant(p.Keywords, p.Topics)
	})
}

func (lp *layerPass) generators() {
	o, d, L := lp.o, lp.d, lp.r.layer
	n := o.publishers
	if n == 0 {
		n = d.ws.Publishers.Len()
	}
	L["publisher.universe_ms"], _ = lp.once("publisher.NewUniverse", func() {
		_, err := publisher.NewUniverse(publisher.Config{Seed: o.seed, NumPublishers: n})
		must(err)
	})
	L["ipmeta.universe_ms"], _ = lp.once("ipmeta.NewUniverse", func() {
		_, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: o.seed})
		must(err)
	})
	L["adnet.deliver_ms"], _ = lp.once("adnet.Network.Run", func() {
		for _, c := range d.campaigns {
			_, err := d.ws.Network.Run(c)
			must(err)
		}
	})
	ws, err := adaudit.NewWorkspace(adaudit.Options{Seed: o.seed, NumPublishers: o.publishers})
	must(err)
	L["campaign.run_all_ms"], _ = lp.once("campaign.Driver.RunAll", func() {
		_, err = ws.Run(d.campaigns)
		must(err)
	})
}
