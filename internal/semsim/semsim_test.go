package semsim

import (
	"math"
	"testing"
	"testing/quick"
)

func smallTaxonomy(t *testing.T) *Taxonomy {
	t.Helper()
	tx, err := NewTaxonomyBuilder("root").
		Add("a", "root", "alpha").
		Add("b", "root", "beta").
		Add("a1", "a", "alpha one").
		Add("a2", "a", "alpha two").
		Add("a1x", "a1", "deep").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewTaxonomyBuilder("root").Add("x", "missing").Build(); err == nil {
		t.Fatal("expected unknown-parent error")
	}
	if _, err := NewTaxonomyBuilder("root").Add("x", "root").Add("x", "root").Build(); err == nil {
		t.Fatal("expected duplicate-concept error")
	}
}

func TestMaxDepth(t *testing.T) {
	tx := smallTaxonomy(t)
	if tx.maxDepth != 4 {
		t.Fatalf("maxDepth = %d, want 4 (root=1, a=2, a1=3, a1x=4)", tx.maxDepth)
	}
}

// The Similarity tests score concept names, which are their own only
// lemmas in smallTaxonomy, so WordSimilarity is the concept measure.

func TestSimilaritySelfIsMax(t *testing.T) {
	tx := smallTaxonomy(t)
	sim, ok := tx.WordSimilarity("a1", "a1")
	if !ok {
		t.Fatal("self similarity not ok")
	}
	if math.Abs(sim-tx.PathSimilarity(1)) > 1e-12 {
		t.Fatalf("self sim = %v, want max %v", sim, tx.PathSimilarity(1))
	}
}

func TestSimilarityPathLengths(t *testing.T) {
	tx := smallTaxonomy(t)
	d := float64(2 * tx.maxDepth)
	cases := []struct {
		a, b string
		len  float64
	}{
		{"a1", "a2", 3}, // a1 - a - a2
		{"a1", "a", 2},  // parent/child
		{"a1", "b", 4},  // a1 - a - root - b
		{"a1x", "b", 5}, // deepest cross-branch path
		{"root", "root", 1},
	}
	for _, c := range cases {
		sim, ok := tx.WordSimilarity(c.a, c.b)
		if !ok {
			t.Fatalf("WordSimilarity(%s,%s) not ok", c.a, c.b)
		}
		want := -math.Log(c.len / d)
		if math.Abs(sim-want) > 1e-12 {
			t.Errorf("WordSimilarity(%s,%s) = %v, want %v (len %v)", c.a, c.b, sim, want, c.len)
		}
	}
}

func TestSimilarityUnknownConcept(t *testing.T) {
	tx := smallTaxonomy(t)
	if _, ok := tx.WordSimilarity("a", "nope"); ok {
		t.Fatal("unknown concept reported ok")
	}
}

// Properties: LC similarity over concept names is symmetric, maximal on
// the diagonal, and bounded by the self-similarity.
func TestSimilarityProperties(t *testing.T) {
	tx := DefaultTaxonomy()
	err := quick.Check(func(i, j uint16) bool {
		a := tx.nodes[int(i)%len(tx.nodes)].name
		b := tx.nodes[int(j)%len(tx.nodes)].name
		sab, ok1 := tx.WordSimilarity(a, b)
		sba, ok2 := tx.WordSimilarity(b, a)
		if !ok1 || !ok2 {
			return false
		}
		if math.Abs(sab-sba) > 1e-12 {
			return false
		}
		if sab > tx.PathSimilarity(1)+1e-12 {
			return false
		}
		if a == b && math.Abs(sab-tx.PathSimilarity(1)) > 1e-12 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWordSimilarityUsesLemmas(t *testing.T) {
	tx := DefaultTaxonomy()
	// "soccer" is a lemma of the football concept.
	simLemma, ok := tx.WordSimilarity("soccer", "football")
	if !ok {
		t.Fatal("lemma lookup failed")
	}
	if math.Abs(simLemma-tx.PathSimilarity(1)) > 1e-12 {
		t.Fatalf("soccer~football = %v, want max (same concept)", simLemma)
	}
	if _, ok := tx.WordSimilarity("soccer", "xyzzy"); ok {
		t.Fatal("unknown word reported ok")
	}
}

func TestWordSimilarityCaseInsensitive(t *testing.T) {
	tx := DefaultTaxonomy()
	a, ok1 := tx.WordSimilarity("Football", "RESEARCH")
	b, ok2 := tx.WordSimilarity("football", "research")
	if !ok1 || !ok2 || a != b {
		t.Fatalf("case sensitivity: %v/%v vs %v/%v", a, ok1, b, ok2)
	}
}

func TestDomainOrdering(t *testing.T) {
	tx := DefaultTaxonomy()
	// research ~ universities (same knowledge branch) must beat
	// research ~ football (cross-branch).
	near, _ := tx.WordSimilarity("research", "university")
	far, _ := tx.WordSimilarity("research", "football")
	if near <= far {
		t.Fatalf("research~university (%v) should exceed research~football (%v)", near, far)
	}
	// football ~ basketball (siblings) must beat football ~ finance.
	sib, _ := tx.WordSimilarity("football", "basketball")
	cross, _ := tx.WordSimilarity("football", "banking")
	if sib <= cross {
		t.Fatalf("football~basketball (%v) should exceed football~banking (%v)", sib, cross)
	}
	// telematics ~ telecommunications is a lemma identity.
	tele, ok := tx.WordSimilarity("telematics", "telecommunications")
	if !ok || math.Abs(tele-tx.PathSimilarity(1)) > 1e-12 {
		t.Fatalf("telematics~telecommunications = %v, %v", tele, ok)
	}
}

func TestLookupLemma(t *testing.T) {
	tx := DefaultTaxonomy()
	got := tx.LookupLemma("SOCCER")
	if len(got) != 1 || got[0] != "football" {
		t.Fatalf("LookupLemma(SOCCER) = %v", got)
	}
	if tx.LookupLemma("not-a-word") != nil {
		t.Fatal("unknown lemma returned concepts")
	}
}

func TestMatcherKeywordClause(t *testing.T) {
	m := NewMatcher(DefaultTaxonomy())
	if !m.KeywordMatch([]string{"Research"}, []string{"innovation", "research"}) {
		t.Fatal("exact keyword match failed")
	}
	if m.KeywordMatch([]string{"research"}, []string{"football"}) {
		t.Fatal("non-matching keywords matched")
	}
	if m.KeywordMatch(nil, []string{"x"}) || m.KeywordMatch([]string{"x"}, nil) {
		t.Fatal("empty side matched")
	}
}

func TestMatcherTopicClause(t *testing.T) {
	m := NewMatcher(DefaultTaxonomy())
	// A physics publisher is topically relevant to a research campaign
	// (sibling topics under the science vertical).
	if !m.TopicMatch([]string{"research"}, []string{"physics"}) {
		t.Fatal("research campaign should match physics topic")
	}
	// The default threshold stops at the vertical boundary: university
	// (education vertical) is NOT similar enough to research (science
	// vertical), matching Table 2's low audit fractions.
	if m.TopicMatch([]string{"research"}, []string{"university"}) {
		t.Fatal("default threshold leaked across verticals")
	}
	// A gambling site is not relevant either.
	if m.TopicMatch([]string{"research"}, []string{"casino"}) {
		t.Fatal("research campaign matched casino topic")
	}
	// Unknown topics never match.
	if m.TopicMatch([]string{"research"}, []string{"zzzz"}) {
		t.Fatal("unknown topic matched")
	}
	// The widened ablation threshold recovers macro-vertical matches.
	wide := &Matcher{Taxonomy: m.Taxonomy, Threshold: m.Taxonomy.PathSimilarity(5.5)}
	if !wide.TopicMatch([]string{"research"}, []string{"university"}) {
		t.Fatal("widened threshold should match within the macro-vertical")
	}
}

func TestMatcherRelevantCombines(t *testing.T) {
	m := NewMatcher(DefaultTaxonomy())
	// Keyword clause fires even when topics are unrelated.
	if !m.Relevant([]string{"football"}, []string{"football"}, []string{"casino"}) {
		t.Fatal("keyword clause did not fire")
	}
	// Topic clause fires without keyword overlap.
	if !m.Relevant([]string{"football"}, []string{"sports daily"}, []string{"basketball"}) {
		t.Fatal("topic clause did not fire")
	}
	if m.Relevant([]string{"football"}, []string{"cooking"}, []string{"recipes"}) {
		t.Fatal("irrelevant publisher reported relevant")
	}
}

func TestMatcherThresholdAblation(t *testing.T) {
	tx := DefaultTaxonomy()
	strict := &Matcher{Taxonomy: tx, Threshold: tx.PathSimilarity(1)} // only identity passes
	loose := &Matcher{Taxonomy: tx, Threshold: 0}                     // everything known passes
	if strict.TopicMatch([]string{"research"}, []string{"university"}) {
		t.Fatal("strict matcher passed non-identical topic")
	}
	if !strict.TopicMatch([]string{"research"}, []string{"research"}) {
		t.Fatal("strict matcher rejected identity")
	}
	if !loose.TopicMatch([]string{"research"}, []string{"casino"}) {
		t.Fatal("loose matcher rejected a known topic")
	}
}

func TestDefaultTaxonomyShape(t *testing.T) {
	tx := DefaultTaxonomy()
	if tx.NumConcepts() < 50 {
		t.Fatalf("default taxonomy has only %d concepts", tx.NumConcepts())
	}
	if tx.maxDepth < 3 {
		t.Fatalf("default taxonomy depth = %d", tx.maxDepth)
	}
	for _, c := range []string{"research", "football", "universities", "telematics", "adult", "gambling"} {
		if !tx.HasConcept(c) {
			t.Errorf("default taxonomy missing concept %q", c)
		}
	}
}
