package store

import (
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/trace"
)

// This file is the store's change feed: a bounded broadcast bus that
// lets a subscriber attach with a consistent snapshot of the store and
// then receive every subsequent mutation as an ordered delta. It is
// the substrate the streaming audit engine (internal/streamaudit)
// consumes, replacing full-store rescans with per-event updates.
//
// Guarantees (documented in DESIGN.md §10):
//
//   - Total order. Every mutation — impression insert, exposure merge,
//     conversion insert — is assigned a strictly increasing sequence
//     number under one feed mutex, across both the impression log and
//     the conversion log. Each subscriber observes events in sequence
//     order with no gaps and no duplicates, until it is dropped.
//   - Consistent attach. Subscribe primes the subscriber from the
//     current store contents while holding the store's read locks, so
//     writers are excluded: every record is seen exactly once, either
//     in the snapshot prime or as a later delta, never both or neither.
//   - Bounded buffering, drop-then-resync. Each subscriber has its own
//     buffered channel. A publisher never blocks on a slow consumer:
//     when the buffer is full the subscriber is marked dropped, removed
//     from the bus, and its channel closed. The consumer detects the
//     close (Dropped() reports true), discards its state, and
//     re-subscribes — resyncing from a fresh snapshot. Correctness
//     never depends on the buffer being large enough; only efficiency
//     does.
//
// The feed is created lazily on first Subscribe. Before that, every
// mutation pays a single atomic pointer load — the insert hot path is
// unchanged for deployments that never attach a subscriber.

// FeedKind discriminates change-feed events.
type FeedKind uint8

const (
	// FeedInsert is a new impression; Im is the record as stored.
	FeedInsert FeedKind = iota + 1
	// FeedMerge is an exposure update (a reconnected beacon session
	// folded into an existing record); Im is the full post-merge
	// record and Prev holds the pre-merge mutable fields.
	FeedMerge
	// FeedConversion is a new conversion record in Conv.
	FeedConversion
)

// String returns the kind's wire/debug name.
func (k FeedKind) String() string {
	switch k {
	case FeedInsert:
		return "insert"
	case FeedMerge:
		return "merge"
	case FeedConversion:
		return "conversion"
	}
	return "unknown"
}

// MergePrev is the pre-merge value of every field Store.Merge can
// change. Incremental consumers need it to retract the old
// contribution (e.g. a viewability predicate that held before the
// merge but not after); all other Impression fields are immutable
// after insert.
type MergePrev struct {
	Exposure           time.Duration
	MouseMoves         int
	Clicks             int
	VisibilityMeasured bool
	MaxVisibleFraction float64
}

// FeedEvent is one ordered store mutation.
type FeedEvent struct {
	// Seq is the store-wide mutation sequence number (1-based,
	// contiguous across impression and conversion mutations).
	Seq  int64
	Kind FeedKind
	// Im is set for FeedInsert (the inserted record) and FeedMerge
	// (the post-merge record).
	Im Impression
	// Prev and Slot are set for FeedMerge only. Slot is the record's
	// rank among its campaign's records in store order — its index in
	// VisitCampaign order — so a consumer that appends each campaign's
	// records as the prime and the inserts deliver them finds the
	// merged one there without an index of its own.
	Prev MergePrev
	Slot int
	// Conv is set for FeedConversion only.
	Conv Conversion
	// PublishedAt is the wall clock (unix nanoseconds) at publish —
	// the commit side of the commit→apply freshness SLO. Consumers
	// subtract it from their own clock to measure pipeline lag.
	PublishedAt int64
	// Trace is the impression's pipeline trace (nil for unsampled
	// impressions). Consumers stamp their apply stage on it and finish
	// it; all Trace methods tolerate concurrent use by multiple
	// subscribers.
	Trace *trace.Trace
}

// DefaultFeedBuffer is the per-subscriber channel capacity used when
// Subscribe is called with a non-positive buffer size.
const DefaultFeedBuffer = 1024

// feed is the broadcast bus. seq and the subscriber set are guarded by
// mu; publishers hold it only long enough to stamp the sequence number
// and attempt one non-blocking send per subscriber.
type feed struct {
	mu    sync.Mutex
	seq   int64
	subs  map[*FeedSub]struct{}
	drops atomic.Int64
}

// FeedSub is one subscriber's handle on the change feed.
type FeedSub struct {
	f        *feed
	ch       chan FeedEvent
	startSeq int64
	dropped  atomic.Bool
}

// Events returns the subscriber's delta channel. The channel is closed
// when the subscriber is dropped for falling behind (Dropped reports
// true) or after Close.
func (sub *FeedSub) Events() <-chan FeedEvent { return sub.ch }

// StartSeq returns the feed sequence number the snapshot prime
// covered: every event delivered on Events has Seq > StartSeq.
func (sub *FeedSub) StartSeq() int64 { return sub.startSeq }

// Dropped reports whether the bus evicted this subscriber because its
// buffer overflowed. After the events channel closes, it
// distinguishes eviction (resync required) from a plain Close.
func (sub *FeedSub) Dropped() bool { return sub.dropped.Load() }

// Close detaches the subscriber and closes its events channel.
// Idempotent, and a no-op if the bus already dropped the subscriber.
func (sub *FeedSub) Close() {
	f := sub.f
	f.mu.Lock()
	if _, ok := f.subs[sub]; ok {
		delete(f.subs, sub)
		close(sub.ch)
	}
	f.mu.Unlock()
}

// feedHandle returns the store's feed, creating it on first use.
func (s *Store) feedHandle() *feed {
	if f := s.feed.Load(); f != nil {
		return f
	}
	f := &feed{subs: map[*FeedSub]struct{}{}}
	if s.feed.CompareAndSwap(nil, f) {
		return f
	}
	return s.feed.Load()
}

// Subscribe attaches a change-feed subscriber. prime (if non-nil) is
// called once per stored impression and primeConv once per stored
// conversion, both in insertion order, while the store's read lock
// excludes writers — together with the registration happening under the
// same critical section, that makes the snapshot + delta stream
// consistent: no mutation is missed and none is delivered twice. The
// callbacks must not call back into the store. buffer <= 0 selects
// DefaultFeedBuffer.
func (s *Store) Subscribe(buffer int, prime func(*Impression), primeConv func(*Conversion)) *FeedSub {
	if buffer <= 0 {
		buffer = DefaultFeedBuffer
	}
	f := s.feedHandle()
	sub := &FeedSub{f: f, ch: make(chan FeedEvent, buffer)}
	// Lock order: store, then feed — the order the publish paths
	// compose them in.
	s.mu.RLock()
	if prime != nil {
		s.recs.each(func(im *Impression) bool { prime(im); return true })
	}
	if primeConv != nil {
		for i := range s.convs {
			primeConv(&s.convs[i])
		}
	}
	f.mu.Lock()
	sub.startSeq = f.seq
	f.subs[sub] = struct{}{}
	f.mu.Unlock()
	s.mu.RUnlock()
	s.tel.feedSubscribes.Inc()
	return sub
}

// FeedSeq returns the sequence number of the latest published
// mutation (0 before any subscriber ever attached — sequence numbers
// only start being assigned once the feed exists).
func (s *Store) FeedSeq() int64 {
	f := s.feed.Load()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// publishFeed stamps ev with the next sequence number and the publish
// wall clock and offers it to every subscriber, returning how many
// subscribers received it. Called with the store's write lock held so
// that sequence order equals mutation order. A subscriber whose buffer is
// full is dropped: removed from the bus, marked, and its channel
// closed — the publisher never blocks.
func (s *Store) publishFeed(ev FeedEvent) int {
	f := s.feed.Load()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	ev.PublishedAt = time.Now().UnixNano()
	// Stamp before the sends: a subscriber may apply (and finish) the
	// trace before this function returns.
	ev.Trace.Stage(trace.StageFeed)
	delivered := 0
	for sub := range f.subs {
		select {
		case sub.ch <- ev:
			delivered++
		default:
			sub.dropped.Store(true)
			delete(f.subs, sub)
			close(sub.ch)
			f.drops.Add(1)
			s.tel.feedDrops.Inc()
		}
	}
	f.mu.Unlock()
	s.tel.feedEvents.Inc()
	return delivered
}

// FeedDrops returns the total number of subscribers the bus has
// evicted for falling behind — the /healthz signal that live audit
// consumers are resyncing instead of keeping up.
func (s *Store) FeedDrops() int64 {
	_, _, drops := s.feedStats()
	return drops
}

// feedStats samples the feed for the scrape-time gauges: subscriber
// count, the deepest per-subscriber buffer, and total drops.
func (s *Store) feedStats() (subs int, maxDepth int, drops int64) {
	f := s.feed.Load()
	if f == nil {
		return 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		if d := len(sub.ch); d > maxDepth {
			maxDepth = d
		}
	}
	return len(f.subs), maxDepth, f.drops.Load()
}
