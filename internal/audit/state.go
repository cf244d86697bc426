package audit

import (
	"slices"
	"sync"
	"time"

	"adaudit/internal/store"
)

// dict interns strings to dense ids in first-seen order.
type dict struct {
	keys []string         // id -> key
	ids  map[string]int32 // key -> id
}

func (d *dict) intern(key string) int32 {
	id, ok := d.ids[key]
	if !ok {
		id = int32(len(d.keys))
		d.ids[key] = id
		d.keys = append(d.keys, key)
	}
	return id
}

// reset empties the dictionary, keeping its buffers and none of its keys.
func (d *dict) reset() {
	clear(d.keys)
	d.keys = d.keys[:0]
	clear(d.ids)
}

// columns is the state proper, and what its packed form (codec.go)
// carries: one slot per impression in store insertion order, over three
// interned dictionaries, plus the facts that are not per-impression.
type columns struct {
	Users, Pubs, Verdicts dict

	UserOf      []int32   // slot -> user id
	PubOf       []int32   // slot -> publisher id
	VerdictOf   []int32   // slot -> data-center verdict id
	Times       []int64   // slot -> timestamp, unix nanoseconds
	Exposures   []float64 // slot -> exposure seconds
	VisMeasured []bool    // slot -> visibility measured
	VisFrac     []float64 // slot -> max visible fraction

	IPs       map[string]bool // IP pseudonym -> sent a data-center impression
	Convs     map[string]int  // user key -> conversions (users never exposed included)
	Clicks    int
	FirstSeen time.Time
	LastSeen  time.Time
}

// State is everything the audit keeps about one campaign, in the one
// layout batch, streaming, export and shard merge share. Rows are only
// ever appended (Insert, Merge) or overwritten in place (Update), so a
// slot's position is its store insertion order — the order the one
// order-sensitive statistic, the float mean of the exposure summary,
// is summed in. Every result type is materialised from it by a fold
// (BrandSafety, ContextOf, popularityOf, Viewability, Fraud, Behavior,
// FrequencyOf) that reads the columns and never reorders them.
//
// A State is not safe for concurrent mutation; folds only read, so any
// number may run at once. Its packed form is validated when decoded
// (UnmarshalBinary), and nothing outside this package can build one
// except by Insert, Update, Convert, Merge and decoding: a *State in
// hand is valid.
type State struct {
	cols columns
	// What the O(1) live summary reads, kept current by count: DC and
	// viewability tallies, impressions per publisher id, conversions.
	tally       tally
	pubImps     []int32
	conversions int
}

type tally struct{ dataCenter, viewableUB, measured, mrcViewable int }

// NewState returns an empty state ready for Insert.
func NewState() *State {
	newDict := func() dict { return dict{ids: map[string]int32{}} }
	return &State{cols: columns{
		Users: newDict(), Pubs: newDict(), Verdicts: newDict(),
		IPs: map[string]bool{}, Convs: map[string]int{},
	}}
}

// reset empties the state for reuse, keeping its buffers, with room
// for n slots.
func (s *State) reset(n int) {
	c := &s.cols
	for _, d := range []*dict{&c.Users, &c.Pubs, &c.Verdicts} {
		d.reset()
	}
	c.UserOf, c.PubOf, c.VerdictOf = slices.Grow(c.UserOf[:0], n), slices.Grow(c.PubOf[:0], n), slices.Grow(c.VerdictOf[:0], n)
	c.Times, c.Exposures = slices.Grow(c.Times[:0], n), slices.Grow(c.Exposures[:0], n)
	c.VisMeasured, c.VisFrac = slices.Grow(c.VisMeasured[:0], n), slices.Grow(c.VisFrac[:0], n)
	clear(c.IPs)
	clear(c.Convs)
	c.Clicks, c.FirstSeen, c.LastSeen = 0, time.Time{}, time.Time{}
	s.tally, s.pubImps, s.conversions = tally{}, s.pubImps[:0], 0
}

// Len returns the number of slots (impressions).
func (s *State) Len() int { return len(s.cols.UserOf) }

// isDC reports whether a slot's verdict counts as data-center traffic.
func (s *State) isDC(slot int) bool {
	return IsDataCenterVerdict(s.cols.Verdicts.keys[s.cols.VerdictOf[slot]])
}

// count adds (d=1) or removes (d=-1) one slot's contribution to the
// tallies, reading the slot's current column values.
func (s *State) count(slot, d int) {
	c := &s.cols
	for len(s.pubImps) < len(c.Pubs.keys) {
		s.pubImps = append(s.pubImps, 0)
	}
	s.pubImps[c.PubOf[slot]] += int32(d)
	if s.isDC(slot) {
		s.tally.dataCenter += d
	}
	viewable := c.Exposures[slot] >= ViewabilityThreshold.Seconds()
	if viewable {
		s.tally.viewableUB += d
	}
	if c.VisMeasured[slot] {
		s.tally.measured += d
		// The full MRC standard: >= 50% of pixels for >= 1 s.
		if viewable && c.VisFrac[slot] >= 0.5 {
			s.tally.mrcViewable += d
		}
	}
}

// Insert appends one impression as the next slot and returns the slot.
func (s *State) Insert(im *store.Impression) int {
	c := &s.cols
	slot := len(c.UserOf)
	c.UserOf = append(c.UserOf, c.Users.intern(im.UserKey))
	c.PubOf = append(c.PubOf, c.Pubs.intern(im.Publisher))
	c.VerdictOf = append(c.VerdictOf, c.Verdicts.intern(im.DataCenter))
	c.Times = append(c.Times, im.Timestamp.UnixNano())
	c.Exposures = append(c.Exposures, im.Exposure.Seconds())
	c.VisMeasured = append(c.VisMeasured, im.VisibilityMeasured)
	c.VisFrac = append(c.VisFrac, im.MaxVisibleFraction)
	s.count(slot, 1)
	if dc, seen := c.IPs[im.IPPseudonym]; !seen || !dc && s.isDC(slot) {
		c.IPs[im.IPPseudonym] = s.isDC(slot)
	}
	c.Clicks += im.Clicks
	s.seen(im.Timestamp, im.Timestamp)
	return slot
}

// seen widens the first/last-seen window.
func (s *State) seen(first, last time.Time) {
	c := &s.cols
	if !first.IsZero() && (c.FirstSeen.IsZero() || first.Before(c.FirstSeen)) {
		c.FirstSeen = first
	}
	if last.After(c.LastSeen) {
		c.LastSeen = last
	}
}

// Update overwrites a slot with its record's post-merge values (an
// exposure merge changes exposure, visibility and clicks; the rest of
// an impression is immutable). Of prev, the pre-merge values the store
// published, only the click count is needed: the rest is in the slot.
func (s *State) Update(slot int, im *store.Impression, prev store.MergePrev) {
	c := &s.cols
	s.count(slot, -1)
	c.Exposures[slot] = im.Exposure.Seconds()
	c.VisMeasured[slot] = im.VisibilityMeasured
	c.VisFrac[slot] = im.MaxVisibleFraction
	s.count(slot, 1)
	c.Clicks += im.Clicks - prev.Clicks
}

// Convert records one conversion by a user, exposed yet or not.
func (s *State) Convert(userKey string) {
	s.cols.Convs[userKey]++
	s.conversions++
}

// Merge appends o's rows after s's own, remapping o's ids through s's
// dictionaries, and unions the rest. Merging shards in shard order
// therefore yields the state a single store holding the shards' records
// concatenated in that order would have produced. o is only read.
// Every column grows once, by o's length, and an empty receiver's maps
// are made at o's size: a copy (Engine.Export) and a first shard are
// merges into an empty state.
func (s *State) Merge(o *State) {
	c, oc := &s.cols, &o.cols
	remap := func(d, od *dict, dst, src []int32) []int32 {
		if len(d.ids) == 0 {
			d.keys, d.ids = slices.Grow(d.keys, len(od.keys)), make(map[string]int32, len(od.keys))
		}
		ids := make([]int32, len(od.keys))
		for oid, key := range od.keys {
			ids[oid] = d.intern(key)
		}
		dst = slices.Grow(dst, len(src))
		for _, oid := range src {
			dst = append(dst, ids[oid])
		}
		return dst
	}
	base := len(c.UserOf)
	c.UserOf = remap(&c.Users, &oc.Users, c.UserOf, oc.UserOf)
	c.PubOf = remap(&c.Pubs, &oc.Pubs, c.PubOf, oc.PubOf)
	c.VerdictOf = remap(&c.Verdicts, &oc.Verdicts, c.VerdictOf, oc.VerdictOf)
	c.Times = append(c.Times, oc.Times...)
	c.Exposures = append(c.Exposures, oc.Exposures...)
	c.VisMeasured = append(c.VisMeasured, oc.VisMeasured...)
	c.VisFrac = append(c.VisFrac, oc.VisFrac...)
	for slot := base; slot < len(c.UserOf); slot++ {
		s.count(slot, 1)
	}
	if len(c.IPs) == 0 {
		c.IPs = make(map[string]bool, len(oc.IPs))
	}
	for ip, dc := range oc.IPs {
		c.IPs[ip] = c.IPs[ip] || dc
	}
	if len(c.Convs) == 0 {
		c.Convs = make(map[string]int, len(oc.Convs))
	}
	for user, n := range oc.Convs {
		c.Convs[user] += n
		s.conversions += n
	}
	c.Clicks += oc.Clicks
	s.seen(oc.FirstSeen, oc.LastSeen)
}

// Summary is a campaign's live summary: sizes, tallies and the shares
// they give, read in O(1) — nothing in it scans a column.
type Summary struct {
	Impressions        int       `json:"impressions"`
	Publishers         int       `json:"publishers"`
	Users              int       `json:"users"`
	Clicks             int       `json:"clicks"`
	Conversions        int       `json:"conversions"`
	ViewableUpperBound float64   `json:"viewable_upper_bound"`
	MRCViewableShare   float64   `json:"mrc_viewable_share"`
	DataCenterShare    float64   `json:"data_center_share"`
	FirstSeen          time.Time `json:"first_seen"`
	LastSeen           time.Time `json:"last_seen"`
}

// Summary returns the state's live summary.
func (s *State) Summary() Summary {
	c, n := &s.cols, s.Len()
	sum := Summary{
		Impressions: n, Publishers: len(c.Pubs.keys), Users: len(c.Users.keys),
		Clicks: c.Clicks, Conversions: s.conversions, FirstSeen: c.FirstSeen, LastSeen: c.LastSeen,
	}
	if n > 0 {
		sum.ViewableUpperBound = float64(s.tally.viewableUB) / float64(n)
		sum.DataCenterShare = float64(s.tally.dataCenter) / float64(n)
	}
	if s.tally.measured > 0 {
		sum.MRCViewableShare = float64(s.tally.mrcViewable) / float64(s.tally.measured)
	}
	return sum
}

// statePool recycles the states batch audits fill and fold. A warm
// FullAudit allocates no column and no dictionary.
var statePool = sync.Pool{New: func() any { return NewState() }}

// fill builds one campaign's state ("" for every campaign together) in
// one visit of the store, in insertion order. Return it with release.
func (a *Auditor) fill(campaignID string) *State {
	s := statePool.Get().(*State)
	a.fillInto(s, campaignID)
	return s
}

func (a *Auditor) fillInto(s *State, campaignID string) {
	n := a.Store.Len() // known up front from the index, for exact sizing
	if campaignID != "" {
		n = a.Store.CampaignLen(campaignID)
	}
	s.reset(n)
	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		s.Insert(im)
		return true
	})
	for _, c := range a.Store.Conversions(campaignID) {
		s.Convert(c.UserKey)
	}
}

// release returns a filled state to the pool. Results never alias a
// state's buffers, so this is safe as soon as the folds have returned.
func release(s *State) { statePool.Put(s) }
