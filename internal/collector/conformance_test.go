package collector

import (
	"testing"
	"time"

	"adaudit/internal/daemon"
	"adaudit/internal/tiertest"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

// The collector's front-door behaviours are the conformance table's
// rows (internal/tiertest), run here on collectorSpec under the names
// the collector's own tests had.

// collectorSpec is the collector as the table starts it: a
// testCollector with cfg applied, served through its Server.
func collectorSpec(cfg func(*Config)) tiertest.Spec {
	return tiertest.Spec{
		Name: "collector",
		Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
			c, st := testCollector(t, func(c *Config) {
				c.MaxSessions = s.MaxSessions
				if cfg != nil {
					cfg(c)
				}
			})
			if s.Beacon != nil {
				s.Beacon(&c.sessions)
			}
			srv, err := NewServer(c, "", daemon.WithListener(s.Listener), daemon.WithDrainGrace(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return &tiertest.Tier{
				Tier:       daemon.Tier{Name: "collector", Beacon: &c.sessions, Telemetry: c.Telemetry(), Drain: c.sessions.Drain},
				Server:     srv,
				Records:    tiertest.Stored(st),
				Anonymizer: c.cfg.Anonymizer,
			}
		},
		DrainClose: wsproto.CloseError{Code: wsproto.CloseGoingAway, Reason: "collector shutting down"},
		RetryAfter: "1",
		ShedBody:   func(string) string { return "collector at session capacity\n" },
		Sheds:      func(string) tiertest.Series { return tiertest.Series{Name: "adaudit_collector_sheds_total"} },
		Rejects:    tiertest.Labelled("adaudit_collector_rejects_total", "class"),
		Panics:     tiertest.Series{Name: "adaudit_collector_session_panics_total"},
		Trunk: &tiertest.Trunk{Refused: []tiertest.Series{
			tiertest.Labelled("adaudit_collector_rejects_total", "class")(RejectTrunkProto),
			{Name: "adaudit_collector_rejected_total"}, // and no reject of another class
		}},
		Healthz: func(tr *tiertest.Tier) map[string]any {
			return map[string]any{
				"status": "ok", "tier": "collector", "id": tr.Server.Addr().String(), "sessions": 0.0,
				"checks": map[string]any{
					"feed_subscribers": map[string]any{"status": "ok", "value": 0.0, "limit": 0.0,
						"detail": "change-feed subscribers dropped since the last probe (consumers resyncing); 0 in all"},
					"ingest_age": map[string]any{"status": "ok", "limit": 0.0,
						"detail": "seconds since the last committed record; no bound set"},
					"store_records": map[string]any{"status": "ok", "value": 0.0, "limit": 0.0},
					"wal_sync": map[string]any{"status": "ok", "value": 0.0, "limit": 30.0,
						"detail": "seconds the oldest unsynced journal entry has waited for its fsync"},
				},
			}
		},
		Golden:               "testdata/golden/metrics_shape.txt",
		GoldenBeforeSessions: true,
	}
}

func TestFrontRefusalsAreTheHandlers(t *testing.T) {
	tiertest.Check(t, tiertest.FrontRefusals, collectorSpec(nil))
}

func TestFrontBothPathsCommit(t *testing.T) {
	tiertest.Check(t, tiertest.BothPathsCommit, collectorSpec(nil))
}

func TestFrontLeavesPlainHTTPAlone(t *testing.T) {
	tiertest.Check(t, tiertest.PlainHTTP, collectorSpec(nil))
}

func TestFrontUpgradeDuringDrain(t *testing.T) {
	tiertest.Check(t, tiertest.UpgradeRacingDrain, collectorSpec(nil))
}

func TestDrainedSessionClosesGoingAway(t *testing.T) {
	tiertest.Check(t, tiertest.DrainedSession, collectorSpec(nil))
}

func TestSessionCapShedsWith503(t *testing.T) {
	tiertest.Check(t, tiertest.CapacityShed, collectorSpec(nil))
}

func TestUnparseablePeerIsNeverAcked(t *testing.T) {
	tiertest.Check(t, tiertest.UnparseablePeer, collectorSpec(nil))
}

func TestSessionPanicIsRecoveredAndIsolated(t *testing.T) {
	tiertest.Check(t, tiertest.SessionPanic, collectorSpec(nil))
}

func TestShutdownWithConnectionMidHead(t *testing.T) {
	tiertest.Check(t, tiertest.ShutdownMidHead, collectorSpec(nil))
}

func TestWithListenerStillInjectsFaults(t *testing.T) {
	tiertest.Check(t, tiertest.FaultListener, collectorSpec(nil))
}

func TestTrunkRefusesOtherVersion(t *testing.T) {
	tiertest.Check(t, tiertest.TrunkRefusals, collectorSpec(nil))
}

func TestHealthzBody(t *testing.T) {
	tiertest.Check(t, tiertest.Healthz, collectorSpec(nil))
}

func TestMetricsJSONShapeGolden(t *testing.T) {
	tiertest.Check(t, tiertest.MetricsShape, collectorSpec(nil))
}

func TestCloseWithoutServe(t *testing.T) {
	tiertest.Check(t, tiertest.CloseWithoutServe, collectorSpec(nil))
}

func TestIPv6SessionEndToEnd(t *testing.T) {
	tiertest.Check(t, tiertest.IPv6Session, collectorSpec(nil))
}

// TestConformanceCatchesMutants: every row above fails against a
// collector broken the way it guards against. A traced collector
// registers the flight recorder's series beside its own, which the
// metrics golden must notice.
func TestConformanceCatchesMutants(t *testing.T) {
	traced := collectorSpec(func(c *Config) { c.Tracer = trace.NewTracer(trace.NewRecorder(4), 1) })
	tiertest.CatchesMutants(t, append(tiertest.BeaconMutants(collectorSpec(nil)),
		tiertest.Mutant{Name: "an extra registered series", Spec: traced, Kills: []*tiertest.Row{tiertest.MetricsShape}})...)
}
