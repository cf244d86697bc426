package store

import (
	"sync/atomic"
	"time"

	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// storeTelemetry holds the store's instruments. The zero value is a
// fully disabled set: the enabled flag gates the clock reads so an
// uninstrumented store pays nothing on the insert hot path.
//
// Insert-latency timing is sampled (1 in sampleInterval inserts, the
// first always included) because two clock reads per insert would cost
// more than the insert itself at paper scale; the insert counters stay
// exact. tick picks the samples.
type storeTelemetry struct {
	enabled        bool
	tick           atomic.Uint64
	insertLatency  *telemetry.Histogram
	inserts        *telemetry.Counter
	insertFailures *telemetry.Counter
	convInserts    *telemetry.Counter
	convFailures   *telemetry.Counter
	feedEvents     *telemetry.Counter
	feedDrops      *telemetry.Counter
	feedSubscribes *telemetry.Counter
}

// sampleInterval is the stage-timing sampling rate (power of two; the
// collector's stage histograms use the same value).
const sampleInterval = 8

// sampleTiming reports whether this insert's latency should be
// measured: ticks 1, 1+sampleInterval, ... are sampled, so the first
// insert always produces a latency observation.
func (t *storeTelemetry) sampleTiming() bool {
	return t.enabled && t.tick.Add(1)&(sampleInterval-1) == 1
}

// Instrument registers the store's instruments on reg: insert latency,
// insert/failure counters, and gauges for record and index-key counts
// (computed at scrape time, so growth is visible without polling the
// store from outside). Safe to call once per store; a nil registry
// leaves the store uninstrumented.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.tel = storeTelemetry{
		enabled: true,
		insertLatency: reg.Histogram("adaudit_store_insert_seconds",
			"Impression insert latency (validate, lock, append, index).",
			telemetry.LatencyBuckets(), nil),
		inserts: reg.Counter("adaudit_store_inserts_total",
			"Impressions appended to the store.", nil),
		insertFailures: reg.Counter("adaudit_store_insert_failures_total",
			"Impression inserts rejected by validation.", nil),
		convInserts: reg.Counter("adaudit_store_conversion_inserts_total",
			"Conversions appended to the store.", nil),
		convFailures: reg.Counter("adaudit_store_conversion_insert_failures_total",
			"Conversion inserts rejected by validation.", nil),
		feedEvents: reg.Counter("adaudit_store_feed_events_total",
			"Mutations published on the change feed.", nil),
		feedDrops: reg.Counter("adaudit_store_feed_drops_total",
			"Change-feed subscribers evicted for falling behind.", nil),
		feedSubscribes: reg.Counter("adaudit_store_feed_subscribes_total",
			"Change-feed subscriptions (including resyncs).", nil),
	}
	reg.GaugeFunc("adaudit_store_feed_subscribers",
		"Change-feed subscribers currently attached.", nil,
		func() float64 { subs, _, _ := s.feedStats(); return float64(subs) })
	reg.GaugeFunc("adaudit_store_feed_depth",
		"Deepest per-subscriber change-feed buffer.", nil,
		func() float64 { _, depth, _ := s.feedStats(); return float64(depth) })
	reg.GaugeFunc("adaudit_store_wal_dirty_seconds",
		"Age of the oldest journal entry not yet fsynced (SyncGroup policy; 0 when clean).", nil,
		func() float64 { return s.WALDirtyDuration().Seconds() })
	reg.GaugeFunc("adaudit_store_records",
		"Impression records held.", nil,
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("adaudit_store_conversions",
		"Conversion records held.", nil,
		func() float64 { return float64(s.NumConversions()) })
	reg.GaugeFunc("adaudit_store_index_keys",
		"Distinct keys in the store's one index, campaign.",
		map[string]string{"index": "campaign"},
		func() float64 { return float64(s.indexKeys()) })
}

// indexKeys returns the number of distinct campaigns indexed.
func (s *Store) indexKeys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byCampaign)
}

// observeInsertTraced records one successful insert; start is the
// zero time on unsampled (or untimed) inserts, where only the counter
// moves. A traced insert attaches its trace ID as the histogram's
// exemplar, linking the latency aggregate to one concrete impression
// in the flight recorder.
func (s *Store) observeInsertTraced(start time.Time, tr *trace.Trace) {
	if !s.tel.enabled {
		return
	}
	if !start.IsZero() {
		s.tel.insertLatency.ObserveDuration(time.Since(start))
		if id := tr.ID(); id != 0 {
			s.tel.insertLatency.SetExemplar(uint64(id))
		}
	}
	s.tel.inserts.Inc()
}
