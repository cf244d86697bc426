package adnet

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
)

// adversaryNetwork is testNetwork with a fraud scenario plugged into
// the vendor policy.
func adversaryNetwork(t *testing.T, adv *Adversary) *Network {
	t.Helper()
	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 11, NumPublishers: 4000})
	if err != nil {
		t.Fatal(err)
	}
	ips, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicy()
	pol.Adversary = adv
	n, err := New(Config{Seed: 11, Publishers: pubs, IPs: ips, Policy: &pol})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAdversaryOffIsIdentical pins the layer's most important
// property: a nil adversary and an all-zeroes adversary both leave the
// simulation byte-identical to a network without the field — no draw
// is taken from any stream unless an attack share is set.
func TestAdversaryOffIsIdentical(t *testing.T) {
	c := testCampaign("adv-off", 2000)
	base, err := testNetwork(t).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, adv := range []*Adversary{nil, {}} {
		got, err := adversaryNetwork(t, adv).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("adversary=%v perturbed an honest run", adv)
		}
	}
}

// TestHonestReportSellers checks the honest seller attribution: every
// row of a clean run carries a declared seller, and anonymous
// inventory stays one exchange-attributed row.
func TestHonestReportSellers(t *testing.T) {
	res, err := testNetwork(t).Run(testCampaign("honest-sellers", 4000))
	if err != nil {
		t.Fatal(err)
	}
	reg := SellerRegistry{}
	anonRows := 0
	for _, row := range res.Report.Rows {
		if row.Publisher == AnonymousPublisher {
			anonRows++
			if row.SellerID != ExchangeSellerID {
				t.Fatalf("anonymous row attributed to %q, want exchange", row.SellerID)
			}
			continue
		}
		if !reg.Authorized(row.Publisher, row.SellerID) {
			t.Fatalf("honest row %s attributed to undeclared seller %s", row.Publisher, row.SellerID)
		}
	}
	if anonRows > 1 {
		t.Fatalf("anonymous inventory split into %d rows, want at most 1", anonRows)
	}
}

func TestAdversarySpoof(t *testing.T) {
	adv, err := AdversaryScenario("spoof")
	if err != nil {
		t.Fatal(err)
	}
	res, err := adversaryNetwork(t, adv).Run(testCampaign("adv-spoof", 5000))
	if err != nil {
		t.Fatal(err)
	}
	truth := res.AdversarialTruth()
	if truth.Spoofed == 0 {
		t.Fatal("spoof scenario injected no spoofed deliveries")
	}
	// The premium label must show up in the report attributed to
	// sellers its ads.txt never declared.
	reg := SellerRegistry{}
	unauthorized := 0
	for _, row := range res.Report.Rows {
		if row.Publisher == truth.SpoofTarget && !reg.Authorized(row.Publisher, row.SellerID) {
			unauthorized++
		}
	}
	if unauthorized == 0 {
		t.Fatalf("no unauthorized rows under spoof target %s (spoofed=%d)", truth.SpoofTarget, truth.Spoofed)
	}
}

func TestAdversaryPool(t *testing.T) {
	adv, err := AdversaryScenario("pool")
	if err != nil {
		t.Fatal(err)
	}
	res, err := adversaryNetwork(t, adv).Run(testCampaign("adv-pool", 5000))
	if err != nil {
		t.Fatal(err)
	}
	truth := res.AdversarialTruth()
	if truth.Pooled == 0 || len(truth.PoolSellers) == 0 {
		t.Fatal("pool scenario injected no pooled deliveries")
	}
	// Each pool seller's report rows must span several unrelated owner
	// groups — the co-occurrence signature the detector keys on.
	groups := map[string]map[string]bool{}
	for _, row := range res.Report.Rows {
		if IsPoolSellerID(row.SellerID) {
			if groups[row.SellerID] == nil {
				groups[row.SellerID] = map[string]bool{}
			}
			groups[row.SellerID][OwnerGroupOf(row.Publisher)] = true
		}
	}
	if len(groups) == 0 {
		t.Fatal("no pool-seller rows reached the report")
	}
	for seller, g := range groups {
		if len(g) < 2 {
			t.Errorf("pool seller %s spans %d owner group(s), want >= 2", seller, len(g))
		}
	}
}

func TestAdversaryResidentialBots(t *testing.T) {
	adv, err := AdversaryScenario("bots")
	if err != nil {
		t.Fatal(err)
	}
	res, err := adversaryNetwork(t, adv).Run(testCampaign("adv-bots", 5000))
	if err != nil {
		t.Fatal(err)
	}
	truth := res.AdversarialTruth()
	if truth.ResidentialBot == 0 {
		t.Fatal("bots scenario injected no residential-proxy traffic")
	}
	var dcBots int64
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		if d.Device.ResidentialProxy {
			if !d.Device.Bot {
				t.Fatal("residential proxy not marked as bot ground truth")
			}
			if d.Converted {
				t.Fatal("residential-proxy bot converted")
			}
			if d.Exposure != resBotExposure || d.MaxVisibleFraction != resBotVisibleFraction {
				t.Fatalf("proxy bot signature not fixed: exposure=%v frac=%v", d.Exposure, d.MaxVisibleFraction)
			}
		}
		if d.Device.Bot && !d.Device.ResidentialProxy {
			dcBots++
		}
	}
	// The silent refund only covers the data-center cascade's catches:
	// proxy-bot impressions stay fully charged.
	wantRefund := int64(float64(dcBots) * DefaultPolicy().RefundDataCenterFraction)
	if res.Report.RefundedImpressions != wantRefund {
		t.Fatalf("refund %d covers proxy bots, want %d (DC bots only)",
			res.Report.RefundedImpressions, wantRefund)
	}
}

func TestAdversaryInflate(t *testing.T) {
	adv, err := AdversaryScenario("inflate")
	if err != nil {
		t.Fatal(err)
	}
	res, err := adversaryNetwork(t, adv).Run(testCampaign("adv-inflate", 5000))
	if err != nil {
		t.Fatal(err)
	}
	truth := res.AdversarialTruth()
	if truth.Inflated == 0 {
		t.Fatal("inflate scenario injected no stacked placements")
	}
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		if !d.InflatedPlacement {
			continue
		}
		if !d.AuditViewable() {
			t.Fatal("stacked placement below the exposure threshold — inflation must inflate")
		}
		if !d.Device.ResidentialProxy && (!d.VisibilityMeasured || d.MaxVisibleFraction != inflatedVisibleFrac) {
			t.Fatalf("stacked placement fraction %v, want pinned %v", d.MaxVisibleFraction, inflatedVisibleFrac)
		}
	}
}

// TestOwnerGroupOfLabels pins the allocation-free OwnerGroupOf to the
// hash/fnv + fmt.Sprintf form it replaced: all 512 table labels, and
// the label of a sample of domains (empty and non-ASCII included).
func TestOwnerGroupOfLabels(t *testing.T) {
	for i, label := range ownerLabels {
		if want := fmt.Sprintf("owner-%03d", i); label != want {
			t.Fatalf("label %d = %q, want %q", i, label, want)
		}
	}
	domains := []string{"", "a", "news-site.example", "xn--mnchen-3ya.de", "münchen.example", "UPPER.example"}
	for i := 0; i < 2000; i++ {
		domains = append(domains, fmt.Sprintf("site-%d.example", i*7919))
	}
	groups := map[string]bool{}
	for _, d := range domains {
		h := fnv.New32a()
		h.Write([]byte(d))
		h.Write([]byte("/owner"))
		want := fmt.Sprintf("owner-%03d", h.Sum32()%ownerGroups)
		if got := OwnerGroupOf(d); got != want {
			t.Fatalf("OwnerGroupOf(%q) = %q, want %q", d, got, want)
		}
		groups[want] = true
	}
	if len(groups) < ownerGroups/2 {
		t.Fatalf("sample reaches only %d of %d groups", len(groups), ownerGroups)
	}
	if n := testing.AllocsPerRun(100, func() { OwnerGroupOf("news-site.example") }); n != 0 {
		t.Fatalf("OwnerGroupOf allocates %.0f times per call", n)
	}
}
