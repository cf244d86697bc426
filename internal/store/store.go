// Package store is the embedded impression database backing the
// collector — the stand-in for the paper's MySQL instance. It keeps an
// append-only record log with in-memory secondary indexes (campaign,
// publisher, user), supports concurrent writers and readers, and
// round-trips datasets through JSON-lines snapshots and CSV exports for
// downstream analysis.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/trace"
)

// Impression is one fully enriched ad-impression record: the beacon
// payload joined with the connection-derived facts (client address,
// timestamps, exposure) and the IP metadata extracted before
// anonymisation, exactly the row schema the paper's §3 methodology
// stores per impression.
type Impression struct {
	// ID is the store-assigned sequence number (1-based).
	ID int64 `json:"id"`
	// CampaignID and CreativeID identify the ad.
	CampaignID string `json:"campaign_id"`
	CreativeID string `json:"creative_id"`
	// Publisher is the registrable domain extracted from the page URL.
	Publisher string `json:"publisher"`
	// PageURL is the full URL where the impression rendered.
	PageURL string `json:"page_url"`
	// UserAgent is the reported navigator.userAgent.
	UserAgent string `json:"user_agent"`
	// IPPseudonym is the keyed hash of the client IP (the raw address
	// is discarded after metadata extraction, per the paper's
	// anonymisation footnote).
	IPPseudonym string `json:"ip_pseudonym"`
	// UserKey identifies a user as the combination of IP and
	// User-Agent — the identity §4.2's frequency analysis uses, so two
	// devices behind a NAT with different browsers count separately.
	UserKey string `json:"user_key"`
	// ISP is the owning organisation of the client IP; Country its
	// geolocation; both extracted before anonymisation.
	ISP     string `json:"isp"`
	Country string `json:"country"`
	// DataCenter records the fraud cascade's verdict for the client IP
	// (ipmeta.DataCenterVerdict.String()).
	DataCenter string `json:"data_center"`
	// Timestamp is the connection-establishment time at the collector.
	Timestamp time.Time `json:"timestamp"`
	// Exposure is the connection duration — the paper's upper-bound
	// viewability signal.
	Exposure time.Duration `json:"exposure"`
	// MouseMoves and Clicks count interaction events on the ad.
	MouseMoves int `json:"mouse_moves"`
	Clicks     int `json:"clicks"`
	// VisibilityMeasured marks impressions whose placement allowed
	// pixel-visibility measurement (friendly iframe); cross-origin
	// placements cannot report it (§3.1) and leave it false.
	VisibilityMeasured bool `json:"visibility_measured,omitempty"`
	// MaxVisibleFraction is the peak visible-pixel fraction observed,
	// meaningful only when VisibilityMeasured.
	MaxVisibleFraction float64 `json:"max_visible_fraction,omitempty"`
	// Nonce is the client-generated impression nonce the collector
	// deduplicates beacon reconnects by; empty when the beacon never
	// sent one.
	Nonce string `json:"nonce,omitempty"`
}

// Validate checks the record is complete enough to insert.
func (im *Impression) Validate() error {
	switch {
	case im.CampaignID == "":
		return fmt.Errorf("store: impression missing campaign id")
	case im.Publisher == "":
		return fmt.Errorf("store: impression missing publisher")
	case im.UserKey == "":
		return fmt.Errorf("store: impression missing user key")
	case im.Timestamp.IsZero():
		return fmt.Errorf("store: impression missing timestamp")
	case im.Exposure < 0:
		return fmt.Errorf("store: negative exposure %v", im.Exposure)
	}
	return nil
}

// Store is a concurrency-safe impression database with an adjacent
// conversion log (see conversions.go). The record log is a chunked
// append-only log under mu (see reclog.go); the secondary indexes are
// lock-striped shards (see index.go) so concurrent analyses of
// different campaigns, publishers or users never serialise on one
// mutex.
type Store struct {
	mu   sync.RWMutex
	recs recLog

	byCampaign  shardedIndex
	byPublisher shardedIndex
	byUser      shardedIndex

	conversions conversionLog

	// wal, when attached, journals every insert and merge before the
	// in-memory mutation (see wal.go).
	wal *WAL

	// feed, when non-nil, broadcasts every mutation to change-feed
	// subscribers (see feed.go). Created lazily on first Subscribe;
	// atomic because the conversion path publishes without holding mu.
	feed atomic.Pointer[feed]

	tel storeTelemetry
}

// New returns an empty store.
func New() *Store {
	return &Store{}
}

// Insert validates im, assigns it the next ID and appends it. The
// returned ID is 1-based. With a WAL attached the record is journaled
// before the in-memory store mutates, so an insert that returned
// survives a crash.
func (s *Store) Insert(im Impression) (int64, error) {
	return s.InsertTraced(im, nil)
}

// InsertTraced is Insert carrying the impression's pipeline trace
// (nil for unsampled impressions — the common case, which costs only
// predicted nil checks). The trace is stamped at each durability
// stage in execution order — wal_append, commit, feed_publish — and
// handed to the change feed; when no subscriber received it the store
// finishes the trace here, since no downstream stage will.
func (s *Store) InsertTraced(im Impression, tr *trace.Trace) (int64, error) {
	var start time.Time
	if s.tel.sampleTiming() || tr != nil {
		start = time.Now()
	}
	if err := im.Validate(); err != nil {
		s.tel.insertFailures.Inc()
		tr.Truncate("reject:store-validate")
		return 0, err
	}
	s.mu.Lock()
	idx := s.recs.len()
	im.ID = int64(idx + 1)
	wal := s.wal
	var walSeq int64
	if wal != nil {
		seq, err := wal.append(&walEntry{Op: "ins", Im: &im})
		if err != nil {
			s.mu.Unlock()
			s.tel.insertFailures.Inc()
			tr.Truncate("reject:wal-append")
			return 0, err
		}
		walSeq = seq
		tr.Stage(trace.StageWAL)
	}
	s.recs.append(&im)
	// Index while still holding the write lock: that is what keeps
	// posting lists in insertion order across concurrent inserts.
	s.byCampaign.add(im.CampaignID, idx)
	s.byPublisher.add(im.Publisher, idx)
	s.byUser.add(im.UserKey, idx)
	tr.Stage(trace.StageCommit)
	// Publish while still holding the write lock, so feed sequence
	// order matches insertion order and a concurrent Subscribe either
	// primes this record or receives this event, never both.
	delivered := s.publishFeed(FeedEvent{Kind: FeedInsert, Im: im, Trace: tr})
	s.mu.Unlock()
	// Group-commit rendezvous, outside the store lock so concurrent
	// inserts batch into one fsync. On failure the in-memory record
	// stands (a later flush may yet cover it) but the caller must not
	// acknowledge: a client replay deduplicates against it by nonce.
	if err := wal.waitDurable(walSeq); err != nil {
		s.tel.insertFailures.Inc()
		return 0, err
	}
	s.observeInsertTraced(start, tr)
	if delivered == 0 {
		// No live-audit consumer: the commit is the trace's last stage.
		tr.Finish()
	}
	return im.ID, nil
}

// Len returns the number of stored impressions.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs.len()
}

// Get returns the impression with the given 1-based ID.
func (s *Store) Get(id int64) (Impression, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 1 || id > int64(s.recs.len()) {
		return Impression{}, false
	}
	return *s.recs.at(int(id - 1)), true
}

// ForEach calls fn for every impression in insertion order; fn returning
// false stops the scan. The store must not be mutated from within fn.
func (s *Store) ForEach(fn func(Impression) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recs.each(func(im *Impression) bool { return fn(*im) })
}

// Visit calls fn with a pointer to every impression in insertion
// order, without copying records; fn returning false stops the scan.
// The pointer is only valid during the call, fn must treat the record
// as read-only, and the store must not be mutated from within fn.
func (s *Store) Visit(fn func(*Impression) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recs.each(fn)
}

// VisitCampaign streams one campaign's impressions in insertion order
// through fn without materializing a copy; fn returning false stops
// the scan. Same aliasing rules as Visit. Scans of different campaigns
// proceed fully in parallel.
func (s *Store) VisitCampaign(campaignID string, fn func(*Impression) bool) {
	s.visit(s.byCampaign.snapshot(campaignID), fn)
}

// VisitPublisher streams the impressions shown on one publisher.
func (s *Store) VisitPublisher(publisher string, fn func(*Impression) bool) {
	s.visit(s.byPublisher.snapshot(publisher), fn)
}

// VisitUser streams the impressions delivered to one user key.
func (s *Store) VisitUser(userKey string, fn func(*Impression) bool) {
	s.visit(s.byUser.snapshot(userKey), fn)
}

// visit iterates a posting-list snapshot under the read lock. The
// snapshot was taken before the lock, which is safe: posting lists are
// append-only and every indexed position is already in the log.
func (s *Store) visit(idxs []int, fn func(*Impression) bool) {
	if len(idxs) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, idx := range idxs {
		if !fn(s.recs.at(idx)) {
			return
		}
	}
}

// Campaigns returns the distinct campaign IDs present, sorted. The
// sorted listing is cached and only rebuilt when a campaign appeared.
func (s *Store) Campaigns() []string {
	return s.byCampaign.copyKeys()
}

// ByCampaign returns a copy of the impressions of one campaign in
// insertion order. Prefer VisitCampaign on hot paths: it streams the
// records without allocating the copy.
func (s *Store) ByCampaign(campaignID string) []Impression {
	return s.collect(s.byCampaign.snapshot(campaignID))
}

// ByPublisher returns a copy of the impressions shown on one publisher.
func (s *Store) ByPublisher(publisher string) []Impression {
	return s.collect(s.byPublisher.snapshot(publisher))
}

// ByUser returns a copy of the impressions delivered to one user key.
func (s *Store) ByUser(userKey string) []Impression {
	return s.collect(s.byUser.snapshot(userKey))
}

// collect copies the records of one posting-list snapshot, preallocated
// to the exact length the index already knows.
func (s *Store) collect(idxs []int) []Impression {
	out := make([]Impression, len(idxs))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, idx := range idxs {
		out[i] = *s.recs.at(idx)
	}
	return out
}

// Publishers returns the distinct publishers of a campaign, sorted. An
// empty campaignID aggregates across all campaigns, as the paper's
// Figure 1 does; that listing is served from the index's sorted-key
// cache instead of being rebuilt and re-sorted per call.
func (s *Store) Publishers(campaignID string) []string {
	if campaignID == "" {
		return s.byPublisher.copyKeys()
	}
	return s.distinctByCampaign(campaignID, func(im *Impression) string { return im.Publisher })
}

// Users returns the distinct user keys of a campaign, sorted. An empty
// campaignID aggregates across all campaigns (cached, like Publishers).
func (s *Store) Users(campaignID string) []string {
	if campaignID == "" {
		return s.byUser.copyKeys()
	}
	return s.distinctByCampaign(campaignID, func(im *Impression) string { return im.UserKey })
}

// distinctByCampaign collects the sorted distinct values of one field
// over a campaign's impressions.
func (s *Store) distinctByCampaign(campaignID string, field func(*Impression) string) []string {
	set := map[string]struct{}{}
	s.VisitCampaign(campaignID, func(im *Impression) bool {
		set[field(im)] = struct{}{}
		return true
	})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
