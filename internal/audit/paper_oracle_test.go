package audit_test

import (
	"testing"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/audit"
)

// simulated runs the paper campaigns through the whole simulated
// pipeline (optionally under an adversary preset) and returns the
// auditor over the resulting store plus each campaign's vendor report.
func simulated(t testing.TB, publishers int, scenario string) (*audit.Auditor, map[string]*adnet.VendorReport) {
	t.Helper()
	opts := adaudit.Options{Seed: 1, NumPublishers: publishers}
	if scenario != "" {
		adv, err := adnet.AdversaryScenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		pol := adnet.DefaultPolicy()
		pol.Adversary = adv
		opts.Policy = &pol
	}
	ws, err := adaudit.NewWorkspace(opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := ws.Run(adnet.PaperCampaigns())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ws.Auditor()
	if err != nil {
		t.Fatal(err)
	}
	return a, run.Outcome.Reports()
}

// checkOracles compares the flat folds with the reference oracles on
// every campaign, and the behavioral fold on all campaigns together.
func checkOracles(t *testing.T, a *audit.Auditor, reports map[string]*adnet.VendorReport) (bots, inflated, pooled int) {
	t.Helper()
	for id, rep := range reports {
		b := audit.CheckBehaviorOracle(t, a, id)
		p := audit.CheckPoolingOracle(t, id, rep, adnet.SellerRegistry{}, audit.DefaultMaxGroupSpan)
		bots, inflated, pooled = bots+len(b.BotUsers), inflated+len(b.InflatedPublishers), pooled+len(p.PooledSellers)
	}
	audit.CheckBehaviorOracle(t, a, "")
	return bots, inflated, pooled
}

// The seeded paper workload at full scale, and the allocation budget
// the flat folds exist to keep: no allocation per user, per seller or
// per row, so a warm per-campaign call stays within a small constant.
func TestFoldsMatchOraclesOnPaperWorkload(t *testing.T) {
	a, reports := simulated(t, 0, "")
	checkOracles(t, a, reports) // also warms the scratch pools

	if raceEnabled {
		t.Log("skipping allocation guards: sync.Pool drops items under -race")
		return
	}
	for id, rep := range reports {
		if n := testing.AllocsPerRun(5, func() { a.Behavior(id) }); n > 64 {
			t.Errorf("campaign %s: Behavior allocates %.0f times per call, budget 64", id, n)
		}
		if n := testing.AllocsPerRun(5, func() { a.Pooling(id, rep) }); n > 16 {
			t.Errorf("campaign %s: Pooling allocates %.0f times per call, budget 16", id, n)
		}
	}
}

// Every adversary preset, on a smaller universe: the attacks are what
// make the flagged lists (and so both tie-broken sorts) non-empty.
func TestFoldsMatchOraclesOnAdversaryPresets(t *testing.T) {
	for _, scenario := range []string{"spoof", "pool", "bots", "inflate", "all"} {
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			a, reports := simulated(t, 20000, scenario)
			bots, inflated, pooled := checkOracles(t, a, reports)
			if scenario == "all" && (bots == 0 || inflated == 0 || pooled == 0) {
				t.Fatalf("preset flags nothing: %d bots, %d inflated publishers, %d pooled sellers", bots, inflated, pooled)
			}
		})
	}
}
