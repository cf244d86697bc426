package audit

import (
	"time"

	"adaudit/internal/telemetry"
)

// auditStages are what FullAudit times: filling a campaign's state,
// the analysis dimensions in the order the serial engine folds them per
// campaign, and the two cross-campaign aggregates.
const (
	stageState       = "state"
	stagePublishers  = "publishers"
	stageBrandSafety = "brandsafety"
	stageContext     = "context"
	stagePopularity  = "popularity"
	stageViewability = "viewability"
	stageFraud       = "fraud"
	stageSellers     = "sellers"
	stagePooling     = "pooling"
	stageBehavior    = "behavior"
	stageAggregate   = "aggregate"
	stageFrequency   = "frequency"
)

// auditTelemetry holds the auditor's instruments. The zero value is
// fully disabled; every field is nil-safe, so an uninstrumented
// auditor pays only a bool check per stage.
type auditTelemetry struct {
	enabled bool
	stages  map[string]*telemetry.Histogram
	full    *telemetry.Histogram
	audits  *telemetry.Counter
	errors  *telemetry.Counter
	workers *telemetry.Gauge
}

// Instrument registers the auditor's instruments on reg: a per-stage
// latency histogram family (labelled by analysis dimension), the
// end-to-end FullAudit latency, audit/error counters, and the worker
// count the pool last ran with. A nil registry leaves the auditor
// uninstrumented.
func (a *Auditor) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	stages := map[string]*telemetry.Histogram{}
	for _, stage := range []string{
		stageState, stagePublishers, stageBrandSafety, stageContext, stagePopularity,
		stageViewability, stageFraud, stageSellers, stagePooling,
		stageBehavior, stageAggregate, stageFrequency,
	} {
		stages[stage] = reg.Histogram("adaudit_audit_stage_seconds",
			"Per-dimension analysis latency within FullAudit.",
			telemetry.LatencyBuckets(), map[string]string{"stage": stage})
	}
	a.tel = auditTelemetry{
		enabled: true,
		stages:  stages,
		full: reg.Histogram("adaudit_audit_full_seconds",
			"End-to-end FullAudit latency.",
			telemetry.LatencyBuckets(), nil),
		audits: reg.Counter("adaudit_audit_full_total",
			"FullAudit runs completed.", nil),
		errors: reg.Counter("adaudit_audit_full_failures_total",
			"FullAudit runs that returned an error.", nil),
		workers: reg.Gauge("adaudit_audit_workers",
			"Worker-pool size of the most recent FullAudit.", nil),
	}
}

// observeStage records one dimension's duration. Stage analyses run
// for milliseconds at paper scale, so unlike the store's sampled
// insert timing the two clock reads are noise here.
func (t *auditTelemetry) observeStage(stage string, start time.Time) {
	if !t.enabled {
		return
	}
	t.stages[stage].ObserveDuration(time.Since(start))
}

// stageStart returns the timing anchor, or the zero time when
// telemetry is off (time.Now is not free on the fan-out path).
func (t *auditTelemetry) stageStart() time.Time {
	if !t.enabled {
		return time.Time{}
	}
	return time.Now()
}

// observeFull records one completed FullAudit.
func (t *auditTelemetry) observeFull(start time.Time, workers int, err error) {
	if !t.enabled {
		return
	}
	if err != nil {
		t.errors.Inc()
		return
	}
	t.audits.Inc()
	t.workers.Set(int64(workers))
	t.full.ObserveDuration(time.Since(start))
}
