package router

import (
	"fmt"
	"testing"
	"time"

	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
	"adaudit/internal/tiertest"
)

// The router runs the conformance table's rows that need what only it
// has: its /trunk relay (row 11) and its own series names, /healthz and
// the /api/metrics golden (row 12). Its beacon front door is the edge
// core's, whose tests run rows 1–10 on a two-pool edge.

// routerSpec is a router with cfg applied in front of two collector
// shards on the row's network.
func routerSpec(cfg func(*Config)) tiertest.Spec {
	return tiertest.Spec{
		Name: "router",
		Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
			var stores []*store.Store
			var urls []string
			for i := 0; i < 2; i++ {
				ln, err := s.Net.Listen(fmt.Sprintf("shard-%d:80", i))
				if err != nil {
					t.Fatal(err)
				}
				stores = append(stores, store.New())
				collectortest.Serve(t, stores[i], ln, nil)
				urls = append(urls, "ws://"+ln.Addr().String()+"/trunk")
			}
			conf := fastRouterConfig(urls)
			conf.Dialer.NetDial = s.Net.Dial
			if cfg != nil {
				cfg(&conf)
			}
			r, err := New(conf)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(r, "", daemon.WithListener(s.Listener), WithDrainGrace(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })
			return &tiertest.Tier{Tier: r.Tier(), Server: srv, Records: tiertest.Stored(stores...), Anonymizer: collectortest.Anonymizer}
		},
		// A refused trunk relays nothing: frames are counted, and a relayed
		// commit spilled, before the close is written.
		Trunk: &tiertest.Trunk{Token: collectortest.TrunkToken, Unmoved: []tiertest.Series{
			tiertest.Labelled("adaudit_router_relay_frames_total", "type")("commit"),
			{Name: "adaudit_router_commits_total"},
		}},
		Healthz: func(*tiertest.Tier) map[string]any {
			upstream := func(i int) any {
				return map[string]any{"status": "ok", "value": 2.0, "limit": 2.0,
					"detail": fmt.Sprintf("healthy trunks to ws://shard-%d:80/trunk", i)}
			}
			return map[string]any{
				"status": "ok", "tier": "router", "id": "rt-test", "sessions": 0.0,
				"checks": map[string]any{
					"upstream_0": upstream(0),
					"upstream_1": upstream(1),
					"spill_pending": map[string]any{"status": "ok", "value": 0.0, "limit": 0.0,
						"detail": "commits awaiting an upstream ack"},
				},
			}
		},
		Golden: "testdata/golden/metrics_shape.txt",
	}
}

func TestRouterTrunkRefusesOtherVersion(t *testing.T) {
	tiertest.Check(t, tiertest.TrunkRefusals, routerSpec(nil))
}

func TestHealthzBody(t *testing.T) { tiertest.Check(t, tiertest.Healthz, routerSpec(nil)) }

func TestMetricsJSONShapeGolden(t *testing.T) {
	tiertest.Check(t, tiertest.MetricsShape, routerSpec(nil))
}

// TestConformanceCatchesMutants: row 12 fails against a router
// configured one trunk per shard short, or registering one series
// more. No Config field reaches row 11: its refusals are
// trunk.Receiver's.
func TestConformanceCatchesMutants(t *testing.T) {
	tiertest.CatchesMutants(t,
		tiertest.Mutant{Name: "one trunk fewer", Spec: routerSpec(func(c *Config) { c.TrunksPerShard = 1 }),
			Kills: []*tiertest.Row{tiertest.Healthz}},
		tiertest.Mutant{Name: "an extra registered series", Spec: routerSpec(func(c *Config) {
			c.Telemetry = telemetry.NewRegistry()
			c.Telemetry.Counter("adaudit_router_extra_total", "", nil)
		}), Kills: []*tiertest.Row{tiertest.MetricsShape}})
}
