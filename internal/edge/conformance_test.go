package edge

import (
	"testing"

	"adaudit/internal/collector/collectortest"
	"adaudit/internal/tiertest"
	"adaudit/internal/wsproto"
)

// The edge's front-door behaviours are the conformance table's rows
// (internal/tiertest), run here on both configurations under the names
// the edge's own tests had. Rows 11 (it serves no /trunk: the router
// package mounts one) and 12 (its series are named here, not by a tier
// package) run from internal/router and internal/gateway.

// edgeSpec is the fixture's edge named name with pools upstreams, as
// the table starts it.
func edgeSpec(name string, pools int) tiertest.Spec {
	return tiertest.Spec{
		Name: name,
		Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
			f := buildTier(t, name, pools, fixtureOptions{net: s.Net, listener: s.Listener, beacon: s.Beacon, edge: func(cfg *Config) {
				cfg.MaxSessions, cfg.AllowedOrigins = s.MaxSessions, s.Origins
			}})
			f.waitTrunksUp()
			return &tiertest.Tier{Tier: f.e.Tier(), Server: f.srv, Records: tiertest.Stored(f.stores...), Anonymizer: collectortest.Anonymizer}
		},
		DrainClose:         wsproto.CloseError{Code: wsproto.CloseServiceRestart, Reason: "draining retry-after=2s"},
		ShedsWhileDraining: true,
		RetryAfter:         "2",
		ShedBody:           func(reason string) string { return name + " " + reason + "\n" },
		FiltersOrigins:     true,
		Sheds:              tiertest.Labelled("adaudit_"+name+"_sheds_total", "reason"),
	}
}

// specs are the two configurations, as tiers lists them.
func specs() (out []tiertest.Spec) {
	for _, tc := range tiers {
		out = append(out, edgeSpec(tc.name, tc.pools))
	}
	return out
}

func TestFrontRefusalsAreTheHandlers(t *testing.T) {
	tiertest.Check(t, tiertest.FrontRefusals, specs()...)
}

func TestFrontBothPathsCommit(t *testing.T) { tiertest.Check(t, tiertest.BothPathsCommit, specs()...) }

func TestFrontLeavesPlainHTTPAlone(t *testing.T) { tiertest.Check(t, tiertest.PlainHTTP, specs()...) }

func TestUpgradeRacingDrain(t *testing.T) { tiertest.Check(t, tiertest.UpgradeRacingDrain, specs()...) }

func TestDrainHandsSessionsBack(t *testing.T) { tiertest.Check(t, tiertest.DrainedSession, specs()...) }

func TestShedsAtCapacity(t *testing.T) { tiertest.Check(t, tiertest.CapacityShed, specs()...) }

func TestUnparseablePeerIsNeverAcked(t *testing.T) {
	tiertest.Check(t, tiertest.UnparseablePeer, specs()...)
}

func TestSessionPanicIsRecovered(t *testing.T) { tiertest.Check(t, tiertest.SessionPanic, specs()...) }

func TestShutdownWithConnectionMidHead(t *testing.T) {
	tiertest.Check(t, tiertest.ShutdownMidHead, specs()...)
}

func TestWithListenerStillInjectsFaults(t *testing.T) {
	tiertest.Check(t, tiertest.FaultListener, specs()...)
}

func TestCloseWithoutServe(t *testing.T) { tiertest.Check(t, tiertest.CloseWithoutServe, specs()...) }

func TestIPv6SessionEndToEnd(t *testing.T) { tiertest.Check(t, tiertest.IPv6Session, specs()...) }

// TestConformanceCatchesMutants: every row above that an exported
// field of the beacon endpoint reaches fails against an edge broken
// through that field.
func TestConformanceCatchesMutants(t *testing.T) {
	var mutants []tiertest.Mutant
	for _, spec := range specs() {
		for _, m := range tiertest.BeaconMutants(spec) {
			m.Name = spec.Name + "/" + m.Name
			mutants = append(mutants, m)
		}
	}
	tiertest.CatchesMutants(t, mutants...)
}
