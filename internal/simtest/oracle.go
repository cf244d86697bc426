package simtest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/trace"
)

// modelRecord is the oracle's prediction of one store record: what the
// collector must have committed for a session after all its segments
// were delivered, under the documented semantics — first delivered
// segment creates the record, continuations under the same nonce merge
// into it (exposure summed, interaction counts added, visibility OR'd,
// max fraction maxed), each segment's exposure clamped to the
// collector's cap first, and a segment repeating a leg already counted
// adds nothing.
type modelRecord struct {
	session     int
	campaignID  string
	creativeID  string
	publisher   string
	pageURL     string
	userAgent   string
	nonce       string
	timestamp   time.Time
	exposure    time.Duration
	moves       int
	clicks      int
	visMeasured bool
	maxVis      float64
	pseudonym   string
	userKey     string

	// Adversarial ground truth: the scenario label (scenarioClean for
	// honest sessions) plus the (publisher, seller) pair the vendor
	// report books this impression under.
	attack            scenario
	reportedPublisher string
	sellerID          string
}

// buildModel predicts the final store from the schedule alone. It is a
// pure function of the (filtered) schedule — independent of delivery
// interleaving across sessions, which is what lets the concurrent phase
// check it too.
func buildModel(sessions []simSession, only []int, maxExposure time.Duration) map[string]*modelRecord {
	include := map[int]bool{}
	for _, i := range only {
		include[i] = true
	}
	// The oracle derives pseudonyms with its own anonymizer keyed
	// identically to the collector's: agreement here proves the
	// enrichment path is a pure function of (key, IP).
	anon := ipmeta.NewAnonymizer([]byte("simtest"))

	model := make(map[string]*modelRecord)
	for _, s := range sessions {
		if only != nil && !include[s.idx] {
			continue
		}
		var legs uint32 // of this session, counted so far
		for _, seg := range s.segments {
			if seg.conv != nil {
				continue // a conversion: no impression record
			}
			leg := uint32(1) << seg.obs.Payload.Leg
			if legs&leg != 0 {
				continue // a duplicate delivery of a leg already counted
			}
			legs |= leg
			exp := seg.obs.Exposure
			if exp < 0 {
				exp = 0
			}
			if exp > maxExposure {
				exp = maxExposure
			}
			moves, clicks := 0, 0
			visMeasured, maxVis := false, 0.0
			for _, e := range seg.obs.Payload.Events {
				switch e.Kind {
				case beacon.EventMouseMove:
					moves++
				case beacon.EventClick:
					clicks++
				case beacon.EventVisibility:
					visMeasured = true
					if e.Fraction > maxVis {
						maxVis = e.Fraction
					}
				}
			}
			rec, seen := model[s.nonce]
			if !seen {
				pub, err := seg.obs.Payload.Publisher()
				if err != nil {
					// Schedules only generate parseable pages; a bad one
					// is a harness bug and will surface as a count
					// mismatch.
					continue
				}
				pseud := anon.Pseudonym(seg.obs.RemoteIP)
				attack := scenarioClean
				switch s.kind {
				case scenarioBot, scenarioInflate, scenarioSpoof, scenarioPool:
					attack = s.kind
				}
				reported, seller := s.reportedPublisher, s.sellerID
				if reported == "" {
					reported = pub
				}
				if seller == "" {
					seller = adnet.DirectSellerID(pub)
				}
				model[s.nonce] = &modelRecord{
					session:           s.idx,
					campaignID:        seg.obs.Payload.CampaignID,
					creativeID:        seg.obs.Payload.CreativeID,
					publisher:         pub,
					pageURL:           seg.obs.Payload.PageURL,
					userAgent:         seg.obs.Payload.UserAgent,
					nonce:             s.nonce,
					timestamp:         seg.obs.ConnectedAt,
					exposure:          exp,
					moves:             moves,
					clicks:            clicks,
					visMeasured:       visMeasured,
					maxVis:            maxVis,
					pseudonym:         pseud,
					userKey:           collector.UserKey(pseud, seg.obs.Payload.UserAgent),
					attack:            attack,
					reportedPublisher: reported,
					sellerID:          seller,
				}
				continue
			}
			rec.exposure += exp
			rec.moves += moves
			rec.clicks += clicks
			rec.visMeasured = rec.visMeasured || visMeasured
			if maxVis > rec.maxVis {
				rec.maxVis = maxVis
			}
		}
	}
	return model
}

// oracle accumulates invariant checks over one run.
type oracle struct {
	mu         sync.Mutex
	model      map[string]*modelRecord
	store      *store.Store
	walPath    string
	snapDir    string
	lastSnap   string
	violations []string

	lastExposure map[int64]time.Duration
	auditMeta    audit.MetadataSource

	// engine is the streaming-audit consumer riding the run's change
	// feed; checkStreamAudit compares it against the batch audit at
	// every checkpoint.
	engine *streamaudit.Engine

	// rec is the collector's flight recorder and traced the predicted
	// trace set, both nil unless Config.TraceSample was set;
	// checkTraces holds them to the completeness invariant.
	rec    *trace.Recorder
	traced map[trace.ID]*simSession

	// attack and disable mirror Config; advFlags counts the entities
	// the adversarial detectors flagged in the final audit.
	attack   string
	disable  string
	advFlags int

	// shards mirrors Config.Shards; checkShardMerge holds the sharded
	// topology's merge layer to the batch audit post hoc.
	shards int
}

func (o *oracle) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// afterDelivery checks the per-delivery invariants on the serial phase:
// every valid observation ingests, and a record's exposure clock only
// moves forward.
func (o *oracle) afterDelivery(seg segment, id int64, err error) {
	if err != nil {
		o.violate("session %d segment %d: ingest failed: %v", seg.session, seg.index, err)
		return
	}
	if seg.conv != nil {
		return
	}
	im, ok := o.store.Get(id)
	if !ok {
		o.violate("session %d segment %d: ingested id %d not in store", seg.session, seg.index, id)
		return
	}
	if o.lastExposure == nil {
		o.lastExposure = make(map[int64]time.Duration)
	}
	if prev, seen := o.lastExposure[id]; seen && im.Exposure < prev {
		o.violate("session %d segment %d: exposure clock ran backwards on id %d: %v -> %v",
			seg.session, seg.index, id, prev, im.Exposure)
	}
	o.lastExposure[id] = im.Exposure
}

// afterDeliveryConcurrent is the lock-guarded variant for the
// multi-worker phase.
func (o *oracle) afterDeliveryConcurrent(seg segment, id int64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.afterDelivery(seg, id, err)
}

// snapshotCompact publishes a snapshot and resets the WAL mid-run —
// the durability path a long-running collector exercises — so the
// recovery invariant is checked across the snapshot boundary too.
func (o *oracle) snapshotCompact(di int) {
	path := filepath.Join(o.snapDir, fmt.Sprintf("snap-%d.json", di))
	if err := o.store.SnapshotCompact(path); err != nil {
		o.violate("snapshot-compact at delivery %d failed: %v", di, err)
		return
	}
	o.lastSnap = path
}

// checkRecovery replays the WAL over the latest snapshot and demands
// the reconstruction equal the live store record for record and
// conversion for conversion — the crash-safety invariant, checkable
// mid-run because appends write whole entries and replay tolerates the
// open journal.
func (o *oracle) checkRecovery(stage string) {
	var base *store.Store
	if o.lastSnap != "" {
		f, err := os.Open(o.lastSnap)
		if err != nil {
			o.violate("%s recovery: opening snapshot: %v", stage, err)
			return
		}
		base, err = store.ReadSnapshot(f)
		f.Close()
		if err != nil {
			o.violate("%s recovery: reading snapshot: %v", stage, err)
			return
		}
	}
	rec, _, err := store.RecoverWAL(o.walPath, base, discardLogger())
	if err != nil {
		o.violate("%s recovery: replaying wal: %v", stage, err)
		return
	}
	live, replayed := dumpStore(o.store), dumpStore(rec)
	if len(live) != len(replayed) {
		o.violate("%s recovery: replay has %d records, live store has %d",
			stage, len(replayed), len(live))
		return
	}
	for i := range live {
		if !impressionEqual(live[i], replayed[i]) {
			o.violate("%s recovery: record %d diverges: live %+v, replayed %+v",
				stage, live[i].ID, live[i], replayed[i])
			return
		}
	}
	if live, replayed := o.store.Conversions(""), rec.Conversions(""); !slices.EqualFunc(live, replayed, conversionEqual) {
		o.violate("%s recovery: replayed conversions %+v diverge from the live store's %+v", stage, replayed, live)
		return
	}
	o.checkStreamReplay(stage, rec)
}

// checkStreamAudit is the streaming-audit invariant: once the engine
// has drained the change feed, its incremental report must be
// deep-equal to the batch FullAudit over the same store and inputs.
// Drain handles a dropped subscription by resyncing from snapshot, so
// the invariant holds regardless of feed-buffer pressure.
func (o *oracle) checkStreamAudit(stage string) {
	if o.engine == nil {
		return
	}
	o.engine.Drain()
	if !o.engine.CaughtUp() {
		o.violate("%s streamaudit: engine not caught up after drain (applied %d, feed at %d)",
			stage, o.engine.Applied(), o.store.FeedSeq())
		return
	}
	aud, err := audit.New(o.store, o.auditMeta)
	if err != nil {
		o.violate("%s streamaudit: constructing auditor: %v", stage, err)
		return
	}
	inputs := o.auditInputs()
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		o.violate("%s streamaudit: batch audit failed: %v", stage, err)
		return
	}
	got, err := o.engine.Report(inputs)
	if err != nil {
		o.violate("%s streamaudit: incremental report failed: %v", stage, err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		o.violate("%s streamaudit: incremental report diverges from batch audit", stage)
	}
}

// checkStreamReplay extends the durability invariant to the streaming
// path: an engine primed from the WAL-recovered store must report
// exactly what the live, delta-fed engine reports.
func (o *oracle) checkStreamReplay(stage string, rec *store.Store) {
	if o.engine == nil {
		return
	}
	replayEng, err := streamaudit.New(streamaudit.Config{Store: rec, Meta: o.auditMeta})
	if err != nil {
		o.violate("%s streamaudit replay: constructing engine: %v", stage, err)
		return
	}
	o.engine.Drain()
	inputs := o.auditInputs()
	liveRep, err := o.engine.Report(inputs)
	if err != nil {
		o.violate("%s streamaudit replay: live report failed: %v", stage, err)
		return
	}
	replayRep, err := replayEng.Report(inputs)
	if err != nil {
		o.violate("%s streamaudit replay: replay report failed: %v", stage, err)
		return
	}
	if !reflect.DeepEqual(liveRep, replayRep) {
		o.violate("%s streamaudit replay: engine primed from recovered store diverges from live engine", stage)
	}
}

// checkModel compares the live store against the shadow model:
// zero-loss (every predicted record exists), no-duplication (nothing
// beyond the predictions exists — one record per nonce), and field
// agreement on every measurement the paper's audit consumes.
func (o *oracle) checkModel() {
	byNonce := make(map[string]store.Impression)
	for _, im := range dumpStore(o.store) {
		if im.Nonce == "" {
			o.violate("no-duplication: record %d (campaign %s, publisher %s) has no nonce — not predicted by any session",
				im.ID, im.CampaignID, im.Publisher)
			continue
		}
		if prev, dup := byNonce[im.Nonce]; dup {
			o.violate("no-duplication: nonce %s appears on records %d and %d",
				im.Nonce, prev.ID, im.ID)
			continue
		}
		byNonce[im.Nonce] = im
	}
	for nonce, want := range o.model {
		im, ok := byNonce[nonce]
		if !ok {
			o.violate("zero-loss: session %d (nonce %s) has no store record", want.session, nonce)
			continue
		}
		delete(byNonce, nonce)
		o.compareRecord(want, im)
	}
	for nonce, im := range byNonce {
		o.violate("no-duplication: record %d (nonce %s) matches no scheduled session", im.ID, nonce)
	}
}

func (o *oracle) compareRecord(want *modelRecord, im store.Impression) {
	mism := func(field string, got, exp any) {
		o.violate("session %d (nonce %s): %s = %v, model predicts %v",
			want.session, want.nonce, field, got, exp)
	}
	if im.CampaignID != want.campaignID {
		mism("campaign", im.CampaignID, want.campaignID)
	}
	if im.CreativeID != want.creativeID {
		mism("creative", im.CreativeID, want.creativeID)
	}
	if im.Publisher != want.publisher {
		mism("publisher", im.Publisher, want.publisher)
	}
	if im.PageURL != want.pageURL {
		mism("page url", im.PageURL, want.pageURL)
	}
	if im.UserAgent != want.userAgent {
		mism("user agent", im.UserAgent, want.userAgent)
	}
	if !im.Timestamp.Equal(want.timestamp) {
		mism("timestamp", im.Timestamp, want.timestamp)
	}
	if im.Exposure != want.exposure {
		mism("exposure", im.Exposure, want.exposure)
	}
	if im.MouseMoves != want.moves {
		mism("mouse moves", im.MouseMoves, want.moves)
	}
	if im.Clicks != want.clicks {
		mism("clicks", im.Clicks, want.clicks)
	}
	if im.VisibilityMeasured != want.visMeasured {
		mism("visibility measured", im.VisibilityMeasured, want.visMeasured)
	}
	if im.MaxVisibleFraction != want.maxVis {
		mism("max visible fraction", im.MaxVisibleFraction, want.maxVis)
	}
	if im.IPPseudonym != want.pseudonym {
		mism("ip pseudonym", im.IPPseudonym, want.pseudonym)
	}
	if im.UserKey != want.userKey {
		mism("user key", im.UserKey, want.userKey)
	}
}

// checkAudit runs the full audit twice — worker pool and serial — over
// the final dataset, with vendor reports synthesised from the model's
// ground truth, and demands identical reports.
func (o *oracle) checkAudit() {
	aud, err := audit.New(o.store, o.auditMeta)
	if err != nil {
		o.violate("audit: constructing auditor: %v", err)
		return
	}
	inputs := o.auditInputs()
	par, err := aud.FullAudit(inputs)
	if err != nil {
		o.violate("audit: parallel run failed: %v", err)
		return
	}
	ser, err := aud.FullAuditSerial(inputs)
	if err != nil {
		o.violate("audit: serial run failed: %v", err)
		return
	}
	if !reflect.DeepEqual(par, ser) {
		o.violate("audit: parallel report diverges from serial report")
	}
}

// auditInputs synthesises one vendor report per campaign from the
// model — deterministic counts standing in for the vendor's claims.
// Rows are keyed by the (reported publisher, seller) attribution, so an
// attack session's report row carries the spoofed domain or pooled
// seller while the beacon-side model keeps the truth.
func (o *oracle) auditInputs() []audit.CampaignInput {
	type rowKey struct{ pub, seller string }
	type pubCount struct {
		impressions int64
		clicks      int64
	}
	perCampaign := make(map[string]map[rowKey]*pubCount)
	for _, rec := range o.model {
		pubs := perCampaign[rec.campaignID]
		if pubs == nil {
			pubs = make(map[rowKey]*pubCount)
			perCampaign[rec.campaignID] = pubs
		}
		k := rowKey{rec.reportedPublisher, rec.sellerID}
		pc := pubs[k]
		if pc == nil {
			pc = &pubCount{}
			pubs[k] = pc
		}
		pc.impressions++
		pc.clicks += int64(rec.clicks)
	}

	var inputs []audit.CampaignInput
	for _, camp := range simCampaigns {
		pubs := perCampaign[camp.ID]
		rep := &adnet.VendorReport{CampaignID: camp.ID}
		var total int64
		for k, pc := range pubs {
			rep.Rows = append(rep.Rows, adnet.ReportRow{
				Publisher:   k.pub,
				SellerID:    k.seller,
				Impressions: pc.impressions,
				Clicks:      pc.clicks,
			})
			total += pc.impressions
		}
		sort.Slice(rep.Rows, func(a, b int) bool {
			if rep.Rows[a].Impressions != rep.Rows[b].Impressions {
				return rep.Rows[a].Impressions > rep.Rows[b].Impressions
			}
			if rep.Rows[a].Publisher != rep.Rows[b].Publisher {
				return rep.Rows[a].Publisher < rep.Rows[b].Publisher
			}
			return rep.Rows[a].SellerID < rep.Rows[b].SellerID
		})
		rep.TotalImpressionsCharged = total
		rep.ContextualImpressions = total * 2 / 3
		rep.RefundedImpressions = total / 10
		inputs = append(inputs, audit.CampaignInput{
			ID:       camp.ID,
			Keywords: camp.Keywords,
			Report:   rep,
		})
	}
	return inputs
}

// checkFinal runs every end-of-run invariant. The streaming check runs
// first so the engine is drained before the recovery check's replay
// cross-comparison reads its report, and before the trace check — a
// trace only finishes once its feed event is applied.
func (o *oracle) checkFinal() {
	o.checkModel()
	o.checkStreamAudit("final")
	o.checkShardMerge("final")
	o.checkRecovery("final")
	o.checkAudit()
	o.checkAdversarial()
	o.checkTraces()
}

// checkShardMerge is the sharded-topology invariant, run post hoc over
// the final store: every record is partitioned onto the shard its
// nonce hashes to (conversions by user key — the join identity), one
// unmodified streamaudit engine runs per shard, and the shard exports
// merged in shard order must report exactly what the batch FullAudit
// computes over the shard-order combined store. Because the partition
// draws nothing from the schedule RNG and runs after the digest is
// sealed, a run's digest is identical across shard counts — that
// equality is asserted by TestShardsDigestDeterminism.
func (o *oracle) checkShardMerge(stage string) {
	n := o.shards
	if n <= 0 {
		return
	}
	shards := make([]*store.Store, n)
	for i := range shards {
		shards[i] = store.New()
	}
	var err error
	o.store.Visit(func(im *store.Impression) bool {
		_, err = shards[shardmerge.ShardFor(im.Nonce, n)].Insert(*im)
		return err == nil
	})
	if err == nil {
		for _, c := range o.store.Conversions("") {
			if _, err = shards[shardmerge.ShardFor(c.UserKey, n)].InsertConversion(c); err != nil {
				break
			}
		}
	}
	if err != nil {
		o.violate("%s shardmerge: partitioning store onto %d shards: %v", stage, n, err)
		return
	}
	combined := store.New()
	for _, sh := range shards {
		sh.Visit(func(im *store.Impression) bool {
			_, err = combined.Insert(*im)
			return err == nil
		})
		if err == nil {
			for _, c := range sh.Conversions("") {
				if _, err = combined.InsertConversion(c); err != nil {
					break
				}
			}
		}
		if err != nil {
			o.violate("%s shardmerge: rebuilding combined store: %v", stage, err)
			return
		}
	}
	inputs := o.auditInputs()
	aud, err := audit.New(combined, o.auditMeta)
	if err != nil {
		o.violate("%s shardmerge: constructing combined auditor: %v", stage, err)
		return
	}
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		o.violate("%s shardmerge: combined batch audit failed: %v", stage, err)
		return
	}
	exports := make([]*streamaudit.Export, n)
	for i, sh := range shards {
		eng, err := streamaudit.New(streamaudit.Config{Store: sh, Meta: o.auditMeta})
		if err != nil {
			o.violate("%s shardmerge: shard %d engine: %v", stage, i, err)
			return
		}
		eng.Drain()
		exports[i] = eng.Export()
	}
	merged, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: o.auditMeta}, shardmerge.Merge(exports))
	if err != nil {
		o.violate("%s shardmerge: static engine over merged export: %v", stage, err)
		return
	}
	got, err := merged.Report(inputs)
	if err != nil {
		o.violate("%s shardmerge: merged report failed: %v", stage, err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		o.violate("%s shardmerge: merged %d-shard report diverges from combined-store batch audit", stage, n)
	}
}

// checkTraces is the trace-completeness invariant: with the engine
// drained, every predicted trace must have reached the recorder and
// finished — complete through the stream-apply stage or explicitly
// truncated — and no spans may linger in the active set. Reconnects,
// duplicates and reordered replays all re-adopt the session's wire ID,
// so this proves merge legs finish too, never orphan.
func (o *oracle) checkTraces() {
	if o.rec == nil {
		return
	}
	for _, snap := range o.rec.Active() {
		o.violate("trace: orphan span: trace %s (nonce %s) still active after drain: stages %v",
			snap.IDHex, snap.Nonce, stageNames(snap.Stages))
	}
	// A feed-buffer eviction means the engine was resyncing when some
	// events published; the store legitimately finishes those traces
	// at the feed stage instead of apply.
	drops := o.store.FeedDrops()
	for id, s := range o.traced {
		snap, ok := o.rec.Get(id)
		if !ok {
			o.violate("trace: session %d (nonce %s): trace %s never reached the recorder",
				s.idx, s.nonce, id)
			continue
		}
		if snap.Nonce != s.nonce {
			o.violate("trace: session %d: trace %s annotated with nonce %q, want %q",
				s.idx, snap.IDHex, snap.Nonce, s.nonce)
		}
		if !snap.Done {
			o.violate("trace: session %d (nonce %s): trace %s neither finished nor truncated: stages %v",
				s.idx, s.nonce, snap.IDHex, stageNames(snap.Stages))
			continue
		}
		if snap.Truncated != "" {
			continue // explicitly truncated is an accounted-for ending
		}
		if snap.Complete(trace.StageApply) {
			continue
		}
		if drops > 0 && snap.Complete(trace.StageFeed) {
			continue
		}
		o.violate("trace: session %d (nonce %s): trace %s finished without reaching %s: stages %v",
			s.idx, s.nonce, snap.IDHex, trace.StageApply, stageNames(snap.Stages))
	}
}

func stageNames(stages []trace.StagePoint) []string {
	out := make([]string, len(stages))
	for i, sp := range stages {
		out[i] = sp.Name
	}
	return out
}

// dumpStore copies the store's records in insertion order.
func dumpStore(s *store.Store) []store.Impression {
	out := make([]store.Impression, 0, s.Len())
	s.Visit(func(im *store.Impression) bool {
		out = append(out, *im)
		return true
	})
	return out
}

// impressionEqual compares two records field for field.
func impressionEqual(a, b store.Impression) bool {
	// Timestamps must name the same instant; monotonic-clock and
	// location bookkeeping may differ after a round trip.
	if !a.Timestamp.Equal(b.Timestamp) {
		return false
	}
	a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

// conversionEqual compares two conversions field for field, timestamps
// by instant as impressionEqual does.
func conversionEqual(a, b store.Conversion) bool {
	eq := a.Timestamp.Equal(b.Timestamp)
	a.Timestamp = b.Timestamp
	return eq && a == b
}
