package semsim

import (
	"sort"
	"sync"
	"testing"
)

// Memoized scores must be identical to the uncached computation, in
// both argument orders, for known and unknown words alike.
func TestWordSimilarityMemoConsistent(t *testing.T) {
	tx := DefaultTaxonomy()
	pairs := [][2]string{
		{"cars", "motor"},
		{"motor", "cars"}, // reversed order hits the same entry
		{"cars", "cars"},
		{"cars", "no-such-word"},
		{"Football", "SOCCER"}, // normalization feeds the memo key
	}
	for _, p := range pairs {
		wantSim, wantOK := tx.wordSimilarity(normalize(p[0]), normalize(p[1]))
		for rep := 0; rep < 3; rep++ { // rep 0 fills, reps 1-2 hit
			sim, ok := tx.WordSimilarity(p[0], p[1])
			if sim != wantSim || ok != wantOK {
				t.Fatalf("WordSimilarity(%q, %q) rep %d = (%v, %v), uncached (%v, %v)",
					p[0], p[1], rep, sim, ok, wantSim, wantOK)
			}
		}
	}
}

// Concurrent mixed readers must agree with the serial answer; run under
// -race this also proves the memo's safety claim.
func TestWordSimilarityMemoConcurrent(t *testing.T) {
	tx := DefaultTaxonomy()
	words := []string{"cars", "motor", "football", "soccer", "banking", "finance", "nope"}

	type res struct {
		sim float64
		ok  bool
	}
	want := map[[2]string]res{}
	for _, a := range words {
		for _, b := range words {
			sim, ok := DefaultTaxonomy().WordSimilarity(a, b) // fresh taxonomy: uncached truth
			want[[2]string{a, b}] = res{sim, ok}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := words[(g+i)%len(words)]
				b := words[(g*3+i*7)%len(words)]
				sim, ok := tx.WordSimilarity(a, b)
				w := want[[2]string{a, b}]
				if sim != w.sim || ok != w.ok {
					t.Errorf("concurrent WordSimilarity(%q, %q) = (%v, %v), want (%v, %v)",
						a, b, sim, ok, w.sim, w.ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A compiled Query must agree with the per-call Matcher methods on
// every clause.
func TestQueryMatchesMatcher(t *testing.T) {
	m := NewMatcher(DefaultTaxonomy())
	campaign := []string{"Cars", "insurance"}
	q := m.Compile(campaign)

	cases := []struct {
		keywords, topics []string
	}{
		{[]string{"cars", "deals"}, nil},            // clause 1 hit
		{[]string{"unrelated"}, []string{"motor"}},  // clause 2 hit (parent vertical)
		{[]string{"unrelated"}, []string{"tennis"}}, // miss: far vertical
		{nil, nil}, // empty publisher
		{[]string{"INSURANCE"}, []string{"physics"}}, // case-folded clause 1
	}
	for _, c := range cases {
		if got, want := q.KeywordMatch(c.keywords), m.KeywordMatch(campaign, c.keywords); got != want {
			t.Errorf("Query.KeywordMatch(%v) = %v, Matcher says %v", c.keywords, got, want)
		}
		if got, want := q.TopicMatch(c.topics), m.TopicMatch(campaign, c.topics); got != want {
			t.Errorf("Query.TopicMatch(%v) = %v, Matcher says %v", c.topics, got, want)
		}
		if got, want := q.Relevant(c.keywords, c.topics), m.Relevant(campaign, c.keywords, c.topics); got != want {
			t.Errorf("Query.Relevant(%v, %v) = %v, Matcher says %v", c.keywords, c.topics, got, want)
		}
	}
}

// A Query remembers each topic's clause-2 verdict. Over every lemma of
// the taxonomy as a topic (and unknown words, and other spellings of a
// known one), alone and in lists, asked cold and asked again, the
// remembered verdict is the Matcher's — also in a Query recompiled for
// one campaign after another, which must forget the last one's.
func TestQueryTopicMemoMatchesMatcher(t *testing.T) {
	tx := DefaultTaxonomy()
	m := NewMatcher(tx)
	topics := []string{"no-such-topic", "", " Motor ", "MOTOR"}
	for lemma := range tx.byLemma {
		topics = append(topics, lemma)
	}
	sort.Strings(topics[4:]) // map order: keep the lists below the same from run to run
	var q Query
	for _, campaign := range [][]string{{"Cars", "insurance"}, {"football"}, {"universities", "research", "telematics"}, {"no-such-word"}, nil} {
		m.CompileInto(&q, campaign)
		for pass := 0; pass < 2; pass++ { // pass 0 fills the memo, pass 1 reads it
			for i, topic := range topics {
				if got, want := q.TopicMatch([]string{topic}), m.TopicMatch(campaign, []string{topic}); got != want {
					t.Fatalf("campaign %v pass %d: Query.TopicMatch(%q) = %v, Matcher says %v", campaign, pass, topic, got, want)
				}
				list := []string{topics[(i*7)%len(topics)], topic, topics[(i*13+5)%len(topics)]}
				if got, want := q.TopicMatch(list), m.TopicMatch(campaign, list); got != want {
					t.Fatalf("campaign %v pass %d: Query.TopicMatch(%q) = %v, Matcher says %v", campaign, pass, list, got, want)
				}
			}
		}
	}
}

func BenchmarkWordSimilarityMemoHit(b *testing.B) {
	tx := DefaultTaxonomy()
	tx.WordSimilarity("cars", "motor") // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.WordSimilarity("cars", "motor")
	}
}
