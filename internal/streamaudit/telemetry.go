package streamaudit

import (
	"sync/atomic"
	"time"

	"adaudit/internal/store"
	"adaudit/internal/telemetry"
)

// engineTelemetry instruments the engine: applied events, resyncs, a
// caught-up lag gauge, and the apply-latency histogram. Like the
// store's instruments, apply timing is sampled (1 in sampleInterval
// events) so the apply path is not dominated by clock reads; the
// counters stay exact. The zero value is fully disabled.
type engineTelemetry struct {
	enabled   bool
	tick      atomic.Uint64
	freshTick atomic.Uint64
	events    *telemetry.Counter
	resyncs   *telemetry.Counter
	freshness *telemetry.Histogram
	apply     *telemetry.Histogram
}

const sampleInterval = 8

func (t *engineTelemetry) init(reg *telemetry.Registry, e *Engine) {
	if reg == nil {
		return
	}
	t.enabled = true
	t.events = reg.Counter("adaudit_streamaudit_events_total",
		"Change-feed events applied by the streaming audit engine.", nil)
	t.resyncs = reg.Counter("adaudit_streamaudit_resyncs_total",
		"Snapshot resyncs after the feed dropped the engine (or a state mismatch).", nil)
	t.freshness = reg.Histogram("adaudit_pipeline_commit_to_apply_seconds",
		"Store-commit to streamaudit-apply pipeline latency — the freshness SLO (sampled; traced events always observed).",
		telemetry.LatencyBuckets(), nil)
	t.apply = reg.Histogram("adaudit_streamaudit_apply_seconds",
		"Latency of applying one feed event to its campaign's state (sampled).",
		telemetry.LatencyBuckets(), nil)
	reg.GaugeFunc("adaudit_streamaudit_lag",
		"Feed events published but not yet applied by the engine.", nil,
		func() float64 {
			lag := e.store.FeedSeq() - e.Applied()
			if lag < 0 {
				lag = 0
			}
			return float64(lag)
		})
	reg.GaugeFunc("adaudit_streamaudit_applied_seq",
		"Feed sequence number of the last applied event.", nil,
		func() float64 { return float64(e.Applied()) })
	reg.GaugeFunc("adaudit_pipeline_feed_queue_age_seconds",
		"Age of the oldest published-but-unapplied feed event (0 when the engine is caught up).", nil,
		func() float64 { return e.Staleness().Seconds() })
}

// observeFreshness records the commit→apply latency of one applied
// feed event. Untraced events are sampled (1 in sampleInterval) to
// keep clock reads off the apply hot path; traced events always
// observe and attach their trace ID as the histogram's exemplar.
func (t *engineTelemetry) observeFreshness(ev *store.FeedEvent) {
	if !t.enabled || ev.PublishedAt <= 0 {
		return
	}
	traced := ev.Trace.ID() != 0
	if !traced && t.freshTick.Add(1)&(sampleInterval-1) != 1 {
		return
	}
	d := time.Duration(time.Now().UnixNano() - ev.PublishedAt)
	if d < 0 {
		d = 0
	}
	t.freshness.ObserveDuration(d)
	if traced {
		t.freshness.SetExemplar(uint64(ev.Trace.ID()))
	}
}

// applyStart returns the timing anchor of a sampled apply, or the zero
// time for the rest (and when telemetry is off).
func (t *engineTelemetry) applyStart() time.Time {
	if !t.enabled || t.tick.Add(1)&(sampleInterval-1) != 1 {
		return time.Time{}
	}
	return time.Now()
}

// observeApply records a sampled apply's duration.
func (t *engineTelemetry) observeApply(start time.Time) {
	if !start.IsZero() {
		t.apply.ObserveDuration(time.Since(start))
	}
}
