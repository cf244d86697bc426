package publisher

import (
	"strings"
	"testing"

	"adaudit/internal/semsim"
)

func testUniverse(t *testing.T, n int) *Universe {
	t.Helper()
	u, err := NewUniverse(Config{Seed: 1, NumPublishers: n})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniverseSize(t *testing.T) {
	u := testUniverse(t, 2000)
	if u.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", u.Len())
	}
}

func TestUniverseRejectsTinyInventory(t *testing.T) {
	if _, err := NewUniverse(Config{Seed: 1, NumPublishers: 3}); err == nil {
		t.Fatal("expected error for tiny inventory")
	}
}

func TestDomainsUniqueAndWellFormed(t *testing.T) {
	u := testUniverse(t, 3000)
	seen := map[string]bool{}
	for i := 0; i < u.Len(); i++ {
		d := u.At(i).Domain
		if seen[d] {
			t.Fatalf("duplicate domain %q", d)
		}
		seen[d] = true
		if !strings.Contains(d, ".") || strings.Contains(d, " ") {
			t.Fatalf("malformed domain %q", d)
		}
	}
}

func TestRanksDistinctAndInRange(t *testing.T) {
	u := testUniverse(t, 3000)
	seen := map[int]bool{}
	for i := 0; i < u.Len(); i++ {
		r := u.At(i).Rank
		if r < 1 || r > 10_000_000 {
			t.Fatalf("rank %d out of range", r)
		}
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
	}
}

func TestRanksCoverAllDecades(t *testing.T) {
	u := testUniverse(t, 5000)
	decades := map[int]int{}
	for i := 0; i < u.Len(); i++ {
		r := u.At(i).Rank
		d := 0
		for r >= 10 {
			r /= 10
			d++
		}
		decades[d]++
	}
	// Log-uniform ranks must populate every decade 0..6.
	for d := 0; d <= 6; d++ {
		if decades[d] == 0 {
			t.Fatalf("no publishers in rank decade 10^%d (got %v)", d, decades)
		}
	}
}

func TestTopicsAreTaxonomyConcepts(t *testing.T) {
	u := testUniverse(t, 2000)
	tx := u.Taxonomy()
	for i := 0; i < u.Len(); i++ {
		p := u.At(i)
		if len(p.Topics) == 0 {
			t.Fatalf("publisher %s has no topics", p.Domain)
		}
		if p.Topics[0] != p.Vertical {
			t.Fatalf("publisher %s first topic %q != vertical %q", p.Domain, p.Topics[0], p.Vertical)
		}
		for _, topic := range p.Topics {
			if !tx.HasConcept(topic) {
				t.Fatalf("publisher %s topic %q not in taxonomy", p.Domain, topic)
			}
		}
		if len(p.Keywords) == 0 {
			t.Fatalf("publisher %s has no keywords", p.Domain)
		}
	}
}

func TestByDomainRoundTrip(t *testing.T) {
	u := testUniverse(t, 500)
	p := u.At(42)
	got, ok := u.ByDomain(p.Domain)
	if !ok || got.Domain != p.Domain || got.Rank != p.Rank {
		t.Fatalf("ByDomain(%q) = %+v, %v", p.Domain, got, ok)
	}
	if _, ok := u.ByDomain("no-such-site.example"); ok {
		t.Fatal("unknown domain found")
	}
}

func TestVerticalIndex(t *testing.T) {
	u := testUniverse(t, 5000)
	if len(u.byVertical) < 20 {
		t.Fatalf("only %d verticals populated", len(u.byVertical))
	}
	total := 0
	for v := range u.byVertical {
		idxs := u.IndexesByVertical(v)
		if len(idxs) == 0 {
			t.Fatalf("vertical %q indexed but empty", v)
		}
		for _, i := range idxs {
			if u.At(i).Vertical != v {
				t.Fatalf("index for %q contains publisher with vertical %q", v, u.At(i).Vertical)
			}
		}
		total += len(idxs)
	}
	if total != u.Len() {
		t.Fatalf("vertical indexes cover %d publishers, want %d", total, u.Len())
	}
}

func TestCampaignVerticalsPresent(t *testing.T) {
	u := testUniverse(t, 8000)
	for _, v := range []string{"research", "universities", "telematics", "football"} {
		if len(u.IndexesByVertical(v)) == 0 {
			t.Fatalf("campaign vertical %q has no inventory", v)
		}
	}
}

func TestBotPropensityBounds(t *testing.T) {
	u := testUniverse(t, 3000)
	for i := 0; i < u.Len(); i++ {
		p := u.At(i)
		if p.BotPropensity < 0 || p.BotPropensity > 0.5 {
			t.Fatalf("publisher %s bot propensity %v out of [0, 0.5]", p.Domain, p.BotPropensity)
		}
	}
}

func TestFootballInventoryMoreBotExposed(t *testing.T) {
	u := testUniverse(t, 8000)
	mean := func(v string) float64 {
		idxs := u.IndexesByVertical(v)
		var sum float64
		for _, i := range idxs {
			sum += u.At(i).BotPropensity
		}
		return sum / float64(len(idxs))
	}
	if mean("football") <= mean("research") {
		t.Fatalf("football bot propensity (%v) should exceed research (%v) per Table 4",
			mean("football"), mean("research"))
	}
}

func TestBrandUnsafeFlag(t *testing.T) {
	u := testUniverse(t, 8000)
	unsafeCount := 0
	for i := 0; i < u.Len(); i++ {
		p := u.At(i)
		switch p.Vertical {
		case "adult", "casino", "betting", "torrents":
			if !p.BrandUnsafe {
				t.Fatalf("publisher %s in %s not flagged brand-unsafe", p.Domain, p.Vertical)
			}
			unsafeCount++
		default:
			if p.BrandUnsafe {
				t.Fatalf("publisher %s in %s wrongly flagged brand-unsafe", p.Domain, p.Vertical)
			}
		}
	}
	if unsafeCount == 0 {
		t.Fatal("no brand-unsafe inventory generated")
	}
}

func TestAnonymousFraction(t *testing.T) {
	u := testUniverse(t, 10000)
	anon := 0
	for i := 0; i < u.Len(); i++ {
		if u.At(i).Anonymous {
			anon++
		}
	}
	frac := float64(anon) / float64(u.Len())
	if frac < 0.03 || frac > 0.10 {
		t.Fatalf("anonymous fraction = %v, want ~0.06", frac)
	}
}

func TestUniverseDeterminism(t *testing.T) {
	u1 := testUniverse(t, 1000)
	u2 := testUniverse(t, 1000)
	for i := 0; i < u1.Len(); i++ {
		a, b := u1.At(i), u2.At(i)
		if a.Domain != b.Domain || a.Rank != b.Rank || a.Vertical != b.Vertical {
			t.Fatalf("universes diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestCustomTaxonomyValidation(t *testing.T) {
	tiny, err := semsim.NewTaxonomyBuilder("root").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUniverse(Config{Seed: 1, NumPublishers: 100, Taxonomy: tiny}); err == nil {
		t.Fatal("expected error for taxonomy missing inventory verticals")
	}
}
