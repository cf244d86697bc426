// Package store is the embedded impression database backing the
// collector — the stand-in for the paper's MySQL instance. It is an
// append-only record log with two in-memory indexes. Campaign → record
// positions is the one access path a reader takes: every analysis of
// the paper's §4 is one pass over one campaign's rows, and anything
// else (the distinct publishers of the whole dataset, say) is a scan of
// the log. Nonce → record is the writers': it makes every leg of a
// beacon count once (legs.go). It supports concurrent writers and
// readers. Its journal (wal.go) and its snapshots (snapshot.go) share
// one binary row format (rowcodec.go); CSV is the export for downstream
// analysis.
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
// conversion log (see conversions.go): a chunked append-only record
// log (see reclog.go) and two indexes over it, all under mu. A handful
// of campaigns gives a lock nothing to stripe, and a per-publisher or
// per-user posting list would be a map entry and a slice paid on every
// commit for no reader.
//
// Two invariants are what a reader may rely on:
//
//   - A posting list only ever grows by append. A slice header read
//     under the read lock therefore stays valid after the lock is
//     released — a later append may move the backing array, but the
//     elements visible through the old header are never rewritten —
//     and any scan sees a prefix of the campaign's final order.
//   - A position is indexed only after its record is in the log, under
//     the same write lock. Posting order is therefore insertion order,
//     and every indexed position refers to a record the log holds.
type Store struct {
	mu   sync.RWMutex
	recs recLog

	// byCampaign maps a campaign ID to the log positions of its
	// records, in insertion order.
	byCampaign map[string][]int
	// nonces maps a nonce to its record and the legs merged into it
	// (legs.go). The first record holding a nonce owns it.
	nonces map[string]nonceEntry

	conversions conversionLog

	// wal, when attached, journals every insert and merge before the
	// in-memory mutation (see wal.go).
	wal *WAL
	// snapMu serialises SnapshotCompact callers: the read lock they
	// hold admits several at once, and they share the temp file.
	snapMu sync.Mutex

	// feed, when non-nil, broadcasts every mutation to change-feed
	// subscribers (see feed.go). Created lazily on first Subscribe;
	// atomic because the conversion path publishes without holding mu.
	feed atomic.Pointer[feed]

	tel storeTelemetry
}

// New returns an empty store.
func New() *Store {
	return &Store{
		byCampaign:  map[string][]int{},
		nonces:      map[string]nonceEntry{},
		conversions: conversionLog{byCampaign: map[string][]int{}},
	}
}

// Insert validates im, assigns it the next ID and appends it. The
// returned ID is 1-based. With a WAL attached the record is journaled
// before the in-memory store mutates, so an insert that returned
// survives a crash. A record whose nonce no earlier record holds owns
// it, with leg 0 merged (legs.go).
func (s *Store) Insert(im Impression) (int64, error) {
	id, _, err := s.commit(im, legBit(0), false, nil)
	return id, err
}

// insertLocked assigns im the next ID, journals it and appends it; the
// caller holds the write lock. When owns (no earlier record holds its
// nonce) the record takes the nonce in the index with legs merged.
func (s *Store) insertLocked(im *Impression, owns bool, legs uint32, tr *trace.Trace) (walSeq int64, delivered int, err error) {
	pos := s.recs.len()
	im.ID = int64(pos + 1)
	if !owns {
		legs = legBit(0)
	}
	if s.wal != nil {
		e := insertEntry(im, legs)
		if walSeq, err = s.wal.append(&e); err != nil {
			tr.Truncate("reject:wal-append")
			return 0, 0, err
		}
		tr.Stage(trace.StageWAL)
	}
	s.recs.append(im)
	// Index while still holding the write lock: that is what keeps
	// the posting list in insertion order across concurrent inserts.
	s.byCampaign[im.CampaignID] = append(s.byCampaign[im.CampaignID], pos)
	if owns {
		s.nonces[im.Nonce] = nonceEntry{pos: uint32(pos), legs: legs}
	}
	tr.Stage(trace.StageCommit)
	// Publish while still holding the write lock, so feed sequence
	// order matches insertion order and a concurrent Subscribe either
	// primes this record or receives this event, never both.
	return walSeq, s.publishFeed(FeedEvent{Kind: FeedInsert, Im: *im, Trace: tr}), nil
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
	var im Impression
	s.recs.load(int(id-1), &im)
	return im, true
}

// Visit calls fn with every impression in insertion order, each built
// into the one Impression the scan reuses; fn returning false stops the
// scan. The pointer is only valid during the call, fn must treat the
// record as read-only, and the store must not be mutated from within fn.
func (s *Store) Visit(fn func(*Impression) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recs.each(fn)
}

// VisitCampaign streams one campaign's impressions in insertion order
// through fn, one reused Impression for the whole scan; fn returning
// false stops the scan. Same aliasing rules as Visit. Readers share the
// lock, so scans of different campaigns proceed in parallel.
func (s *Store) VisitCampaign(campaignID string, fn func(*Impression) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var im Impression
	for _, idx := range s.byCampaign[campaignID] {
		s.recs.load(idx, &im)
		if !fn(&im) {
			return
		}
	}
}

// CampaignLen returns the number of impressions of one campaign, 0 for
// an unknown one, without touching a record.
func (s *Store) CampaignLen(campaignID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byCampaign[campaignID])
}

// Campaigns returns the distinct campaign IDs present, sorted.
func (s *Store) Campaigns() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.byCampaign))
	for c := range s.byCampaign {
		out = append(out, c)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Publishers returns the distinct publishers of a campaign, sorted. An
// empty campaignID aggregates across all campaigns, as the paper's
// Figure 1 does. Either way it is one scan collecting a set — of the
// campaign's rows, or of the whole log (a few ms per 100 K rows): no
// index is kept for it, since its callers are a log line at exit and
// an example.
func (s *Store) Publishers(campaignID string) []string {
	set := map[string]struct{}{}
	collect := func(im *Impression) bool {
		set[im.Publisher] = struct{}{}
		return true
	}
	if campaignID == "" {
		s.Visit(collect)
	} else {
		s.VisitCampaign(campaignID, collect)
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
