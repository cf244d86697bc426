package gateway

import (
	"testing"
	"time"

	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
	"adaudit/internal/tiertest"
)

// The gateway runs the conformance table's rows that need its own
// series names: /healthz and the /api/metrics golden (row 12). Its
// front door is the edge core's, whose tests run rows 1–10 on a
// one-pool edge; it serves no /trunk (row 11).

// gatewaySpec is a gateway with cfg applied in front of one collector
// on the row's network.
func gatewaySpec(cfg func(*Config)) tiertest.Spec {
	return tiertest.Spec{
		Name: "gateway",
		Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
			ln, err := s.Net.Listen("collector:80")
			if err != nil {
				t.Fatal(err)
			}
			st := store.New()
			collectortest.Serve(t, st, ln, nil)
			conf := fastConfig("ws://collector:80/trunk")
			conf.Dialer.NetDial = s.Net.Dial
			if cfg != nil {
				cfg(&conf)
			}
			g, err := New(conf)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(g, "", daemon.WithListener(s.Listener), WithDrainGrace(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Status == "ok" })
			return &tiertest.Tier{Tier: g.Tier(), Server: srv, Records: tiertest.Stored(st), Anonymizer: collectortest.Anonymizer}
		},
		Healthz: func(*tiertest.Tier) map[string]any {
			return map[string]any{
				"status": "ok", "tier": "gateway", "id": "gw-test", "sessions": 0.0,
				"checks": map[string]any{
					"upstream_0": map[string]any{"status": "ok", "value": 2.0, "limit": 2.0,
						"detail": "healthy trunks to ws://collector:80/trunk"},
					"spill_pending": map[string]any{"status": "ok", "value": 0.0, "limit": 0.0,
						"detail": "commits awaiting an upstream ack"},
				},
			}
		},
		Golden: "testdata/golden/metrics_shape.txt",
	}
}

func TestHealthzBody(t *testing.T) { tiertest.Check(t, tiertest.Healthz, gatewaySpec(nil)) }

func TestMetricsJSONShapeGolden(t *testing.T) {
	tiertest.Check(t, tiertest.MetricsShape, gatewaySpec(nil))
}

// TestConformanceCatchesMutants: both rows fail against a gateway
// configured one trunk short, or registering one series more.
func TestConformanceCatchesMutants(t *testing.T) {
	tiertest.CatchesMutants(t,
		tiertest.Mutant{Name: "one trunk fewer", Spec: gatewaySpec(func(c *Config) { c.Trunks = 1 }),
			Kills: []*tiertest.Row{tiertest.Healthz}},
		tiertest.Mutant{Name: "an extra registered series", Spec: gatewaySpec(func(c *Config) {
			c.Telemetry = telemetry.NewRegistry()
			c.Telemetry.Counter("adaudit_gateway_extra_total", "", nil)
		}), Kills: []*tiertest.Row{tiertest.MetricsShape}})
}
