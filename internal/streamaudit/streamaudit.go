// Package streamaudit keeps the audit current: an engine that
// subscribes to the store's change feed and feeds every mutation into
// the per-campaign audit.State — the same columnar state batch
// FullAudit fills in one visit — in O(1) work per mutation instead of a
// full-store rescan per query. An insert appends a slot, an exposure
// merge overwrites one, a conversion bumps a counter. The engine keeps
// nothing per record: a merge event carries its slot.
//
// The headline contract, enforced by the unit tests and the simtest
// oracle: at quiescence (every published feed event applied),
// Engine.Report is deep-equal to Auditor.FullAudit over the same store
// and the same campaign inputs. That holds by construction: Report runs
// the folds FullAudit runs (audit.Auditor.ReportStates) over states
// holding the same rows in the same order, and publishers resolved the
// same way — once per campaign, the views kept between reports.
//
// Export is those states' wire form, which the shard-merge tier unions
// (internal/shardmerge) and NewStatic serves reports from.
//
// Recovery follows the feed's drop-then-resync policy: a consumer the
// bus evicted (or an out-of-order delta, which cannot happen unless
// state was lost) discards its states and re-subscribes, rebuilding
// from the consistent snapshot prime. Resyncs are counted, never
// wrong — only slower.
package streamaudit

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/semsim"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// Config configures an Engine.
type Config struct {
	// Store is the impression database to follow. Required.
	Store *store.Store
	// Meta resolves publisher metadata (rank, keywords, topics, brand
	// safety). Required — the popularity and context dimensions need
	// it, exactly as audit.Auditor does, and on the same terms: it must
	// be safe for concurrent lookups, Report fanning the audit out
	// across a worker pool.
	Meta audit.MetadataSource
	// Matcher decides contextual relevance; nil selects the default
	// Leacock–Chodorow matcher over the default taxonomy, matching
	// audit.New.
	Matcher *semsim.Matcher
	// Buffer is the change-feed buffer size (store.DefaultFeedBuffer
	// when <= 0). A smaller buffer trades memory for resync frequency,
	// never correctness.
	Buffer int
	// Keywords optionally maps campaign ID to targeting keywords for
	// the live per-campaign view; Report-path callers pass keywords
	// explicitly per call.
	Keywords map[string][]string
	// Reports optionally maps campaign ID to the vendor report used by
	// the live per-campaign view. Campaigns without one are audited
	// against an empty report (vendor-side numbers all zero).
	Reports map[string]*adnet.VendorReport
	// Sellers resolves the declared-seller state for the adversarial
	// dimensions; nil uses the simulated ecosystem's registry, matching
	// audit.Auditor's default. Like Meta it must be safe for concurrent
	// lookups.
	Sellers audit.SellerDirectory
	// Telemetry registers the engine's instruments when non-nil.
	Telemetry *telemetry.Registry
}

// Engine consumes the store change feed and serves incremental audit
// views. All exported methods are safe for concurrent use.
type Engine struct {
	store    *store.Store
	buffer   int
	keywords map[string][]string
	reports  map[string]*adnet.VendorReport
	// aud runs the folds: the metadata source, matcher and seller
	// directory, with no store behind it.
	aud *audit.Auditor

	// mu guards states, views, reported and sub. states holds one
	// audit.State per campaign, its slots in store order, which is what
	// lets an exposure merge find its slot from the event alone. A
	// resync rebuilds them from the snapshot prime. views keeps each
	// campaign's publishers resolved between calls, since a state's
	// publishers only grow; a resync drops them with the states.
	// LiveSummary and Audit, which servers repeat, resolve through them
	// from the first call, Report only once reported is set (see
	// Report). A static engine, which serves one export, has none and
	// resolves per call. appliedSeq/resyncs are atomics so monitoring
	// reads never contend with apply.
	mu       sync.Mutex
	states   map[string]*audit.State
	views    *audit.Views
	reported bool
	sub      *store.FeedSub

	appliedSeq atomic.Int64
	resyncs    atomic.Int64

	// lastPub is the PublishedAt stamp (unix nanos) of the last applied
	// feed event; attachedAt is when the engine last (re)subscribed.
	// Together they bound the age of the oldest unapplied event for the
	// freshness SLO without peeking into the feed buffer.
	lastPub    atomic.Int64
	attachedAt atomic.Int64

	lmu       sync.Mutex
	listeners map[*Updates]struct{}

	tel engineTelemetry
}

// New builds an engine and attaches it to the store's change feed,
// priming its state from a consistent snapshot of the current
// contents. The engine is queryable immediately; call Drain or Run to
// keep consuming deltas.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("streamaudit: engine requires a store")
	}
	e, err := newEngine(cfg.Meta, cfg.Matcher, cfg.Sellers, cfg.Keywords, cfg.Reports)
	if err != nil {
		return nil, err
	}
	e.store, e.buffer, e.views = cfg.Store, cfg.Buffer, new(audit.Views)
	e.tel.init(cfg.Telemetry, e)
	e.mu.Lock()
	e.attachLocked()
	e.mu.Unlock()
	return e, nil
}

// newEngine builds what a live and a static engine share. The auditor
// that folds the states gets audit.New's default for a nil matcher and
// its default worker pool: folds only read, and Report holds the engine
// lock for as long as they run, so fanning them out is what shortens
// the time applies wait behind a report.
func newEngine(meta audit.MetadataSource, m *semsim.Matcher, sellers audit.SellerDirectory,
	keywords map[string][]string, reports map[string]*adnet.VendorReport) (*Engine, error) {
	if meta == nil {
		return nil, fmt.Errorf("streamaudit: engine requires a metadata source")
	}
	if m == nil {
		m = semsim.NewMatcher(semsim.DefaultTaxonomy())
	}
	return &Engine{
		keywords:  keywords,
		reports:   reports,
		aud:       &audit.Auditor{Meta: meta, Matcher: m, Sellers: sellers},
		listeners: map[*Updates]struct{}{},
	}, nil
}

// attachLocked (re)subscribes to the feed and rebuilds the states from
// the snapshot prime. Caller holds e.mu.
func (e *Engine) attachLocked() {
	e.states = map[string]*audit.State{}
	e.views.Reset()
	// The prime callbacks run under the store's read locks; they only
	// touch engine state (also safe: e.mu is held).
	e.sub = e.store.Subscribe(e.buffer, e.applyInsert, e.applyConversion)
	e.appliedSeq.Store(e.sub.StartSeq())
	e.attachedAt.Store(time.Now().UnixNano())
}

// resyncLocked implements drop-then-resync: close the old
// subscription (a no-op if the bus already dropped it), rebuild from a
// fresh snapshot, count it. Caller holds e.mu.
func (e *Engine) resyncLocked(dirty map[string]struct{}) {
	if e.sub != nil {
		e.sub.Close()
	}
	e.attachLocked()
	e.resyncs.Add(1)
	e.tel.resyncs.Inc()
	// Every campaign may have changed from the listeners' perspective.
	for id := range e.states {
		dirty[id] = struct{}{}
	}
}

// applyLocked applies one feed event. A sequence gap or a merge to a
// slot the state does not hold means the consumer's state no longer
// matches the feed; the caller must resync. Caller holds e.mu.
func (e *Engine) applyLocked(ev *store.FeedEvent, dirty map[string]struct{}) error {
	if want := e.appliedSeq.Load() + 1; ev.Seq != want {
		return fmt.Errorf("streamaudit: feed gap: got seq %d, want %d", ev.Seq, want)
	}
	start := e.tel.applyStart()
	switch ev.Kind {
	case store.FeedInsert:
		e.applyInsert(&ev.Im)
		dirty[ev.Im.CampaignID] = struct{}{}
	case store.FeedMerge:
		if err := e.applyMerge(ev); err != nil {
			return err
		}
		dirty[ev.Im.CampaignID] = struct{}{}
	case store.FeedConversion:
		e.applyConversion(&ev.Conv)
		dirty[ev.Conv.CampaignID] = struct{}{}
	default:
		return fmt.Errorf("streamaudit: unknown feed event kind %v", ev.Kind)
	}
	e.tel.observeApply(start)
	e.appliedSeq.Store(ev.Seq)
	if ev.PublishedAt > 0 {
		e.lastPub.Store(ev.PublishedAt)
	}
	e.tel.events.Inc()
	// Apply is the trace's terminal stage: stamp it, record the
	// commit→apply freshness observation (with the trace as the
	// histogram exemplar), then finish — idempotent, so a second
	// subscriber finishing the same trace is harmless.
	ev.Trace.Stage(trace.StageApply)
	e.tel.observeFreshness(ev)
	ev.Trace.Finish()
	return nil
}

// handleLocked applies one received event; if the bus closed the
// channel instead (ok false) or the event does not follow the state,
// it resyncs and reports so. Caller holds e.mu.
func (e *Engine) handleLocked(ev *store.FeedEvent, ok bool, dirty map[string]struct{}) (resynced bool) {
	if ok && e.applyLocked(ev, dirty) == nil {
		return false
	}
	e.resyncLocked(dirty)
	return true
}

// drainLocked handles every event already buffered. Caller holds e.mu.
func (e *Engine) drainLocked(dirty map[string]struct{}) (applied int, resynced bool) {
	for {
		select {
		case ev, ok := <-e.sub.Events():
			if e.handleLocked(&ev, ok, dirty) {
				resynced = true
			} else {
				applied++
			}
		default:
			return applied, resynced
		}
	}
}

// Drain synchronously applies every buffered feed event, resyncing if
// the subscription was dropped, and returns how many events it applied
// plus whether a resync happened. This is the deterministic
// consumption mode the simulation harness checkpoints use; live
// deployments run Run instead.
func (e *Engine) Drain() (applied int, resynced bool) {
	if e.store == nil {
		return 0, false // static engine (NewStatic): no feed to drain
	}
	dirty := map[string]struct{}{}
	e.mu.Lock()
	applied, resynced = e.drainLocked(dirty)
	e.mu.Unlock()
	e.notify(dirty)
	return applied, resynced
}

// Run consumes the feed until ctx is cancelled, resyncing from
// snapshot whenever the bus drops the subscription. On cancellation it
// drains whatever is already buffered before returning, so a graceful
// shutdown ends with the engine caught up to the last pre-shutdown
// mutation.
func (e *Engine) Run(ctx context.Context) {
	if e.store == nil {
		return // static engine (NewStatic): no feed to consume
	}
	for {
		e.mu.Lock()
		sub := e.sub
		e.mu.Unlock()
		select {
		case <-ctx.Done():
			e.Drain()
			return
		case ev, ok := <-sub.Events():
			dirty := map[string]struct{}{}
			e.mu.Lock()
			e.handleLocked(&ev, ok, dirty)
			// Batch whatever else is already buffered under one lock
			// hold, then notify once.
			e.drainLocked(dirty)
			e.mu.Unlock()
			e.notify(dirty)
		}
	}
}

// Applied returns the feed sequence number of the last applied event
// (or the snapshot cut after an attach/resync).
func (e *Engine) Applied() int64 { return e.appliedSeq.Load() }

// Resyncs returns how many times the engine rebuilt from snapshot.
func (e *Engine) Resyncs() int64 { return e.resyncs.Load() }

// CaughtUp reports whether the engine has applied every mutation
// published so far.
func (e *Engine) CaughtUp() bool {
	if e.store == nil {
		return true // static engine: frozen at the export cut
	}
	return e.Applied() >= e.store.FeedSeq()
}

// Staleness returns how far behind the feed the engine is in wall
// time: zero when caught up, otherwise the time elapsed since the
// last applied event's publish stamp (or since the engine attached,
// if nothing was applied yet). It upper-bounds the age of the oldest
// unapplied event — the audit-freshness signal /healthz checks.
func (e *Engine) Staleness() time.Duration {
	if e.CaughtUp() {
		return 0
	}
	since := e.lastPub.Load()
	if at := e.attachedAt.Load(); at > since {
		since = at
	}
	if since == 0 {
		return 0
	}
	d := time.Duration(time.Now().UnixNano() - since)
	if d < 0 {
		return 0
	}
	return d
}

// WaitCaughtUp polls until the engine catches up with the feed or the
// timeout expires — the quiescence barrier tests and shutdown paths
// use around a concurrently Running engine.
func (e *Engine) WaitCaughtUp(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if e.CaughtUp() {
			return true
		}
		if time.Now().After(deadline) {
			return e.CaughtUp()
		}
		time.Sleep(time.Millisecond)
	}
}

// Updates is a coalescing change notification: listeners learn which
// campaigns changed since they last looked, without the engine ever
// blocking on them (the signal channel has capacity one and the dirty
// set is bounded by the campaign count).
type Updates struct {
	mu    sync.Mutex
	dirty map[string]struct{}
	sig   chan struct{}
}

// Listen registers a listener. Pair with Unlisten.
func (e *Engine) Listen() *Updates {
	u := &Updates{dirty: map[string]struct{}{}, sig: make(chan struct{}, 1)}
	e.lmu.Lock()
	e.listeners[u] = struct{}{}
	e.lmu.Unlock()
	return u
}

// Unlisten removes a listener.
func (e *Engine) Unlisten(u *Updates) {
	e.lmu.Lock()
	delete(e.listeners, u)
	e.lmu.Unlock()
}

// C signals when at least one campaign turned dirty.
func (u *Updates) C() <-chan struct{} { return u.sig }

// Take drains and returns the dirty campaign set, sorted.
func (u *Updates) Take() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]string, 0, len(u.dirty))
	for c := range u.dirty {
		out = append(out, c)
		delete(u.dirty, c)
	}
	sort.Strings(out)
	return out
}

// notify marks the campaigns dirty on every listener.
func (e *Engine) notify(dirty map[string]struct{}) {
	if len(dirty) == 0 {
		return
	}
	e.lmu.Lock()
	for u := range e.listeners {
		u.mu.Lock()
		for c := range dirty {
			u.dirty[c] = struct{}{}
		}
		u.mu.Unlock()
		select {
		case u.sig <- struct{}{}:
		default:
		}
	}
	e.lmu.Unlock()
}
