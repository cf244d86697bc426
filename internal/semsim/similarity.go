package semsim

import (
	"math"
)

// PathSimilarity returns the LC score of a (possibly fractional) path
// spanning l nodes: -log(l / 2D). Useful for expressing thresholds in
// path-length terms, which stay meaningful if the taxonomy grows deeper.
func (t *Taxonomy) PathSimilarity(l float64) float64 {
	return -math.Log(l / float64(2*t.maxDepth))
}

// WordSimilarity computes the similarity between two word forms as the
// maximum over all concept senses of each word, the standard WordNet
// word-level lift of Leacock–Chodorow concept similarity: -log(len / 2D),
// where len counts nodes on the shortest IS-A path and D is the
// taxonomy's maximum depth. Higher is more similar; identical concepts
// score -log(1/2D) = log(2D). It returns ok=false when either word has
// no sense in the taxonomy.
//
// Results are memoized per normalized word pair: the context analysis
// scores the same campaign keywords against the same publisher topics
// across thousands of publishers, so after warm-up a call is two
// lock-free map hits and zero allocations.
func (t *Taxonomy) WordSimilarity(a, b string) (sim float64, ok bool) {
	na, nb := normalize(a), normalize(b)
	if nb < na {
		na, nb = nb, na
	}
	if e, hit := t.wordMemo.load(na, nb); hit {
		return e.sim, e.ok
	}
	sim, ok = t.wordSimilarity(na, nb)
	t.wordMemo.store(na, nb, memoEntry{sim: sim, ok: ok})
	return sim, ok
}

// wordSimilarity is the uncached sense-pair maximisation; na and nb are
// already normalized.
func (t *Taxonomy) wordSimilarity(na, nb string) (sim float64, ok bool) {
	as := t.byLemma[na]
	bs := t.byLemma[nb]
	if len(as) == 0 || len(bs) == 0 {
		return 0, false
	}
	best := math.Inf(-1)
	for _, ia := range as {
		for _, ib := range bs {
			l := t.pathLen(ia, ib)
			if s := -math.Log(float64(l) / float64(2*t.maxDepth)); s > best {
				best = s
			}
		}
	}
	return best, true
}

// Matcher decides contextual relevance between a campaign's keywords and
// a publisher's keywords/topics, implementing the paper's two-clause
// rule: (1) any publisher keyword equals any campaign keyword, or (2) any
// publisher topic is semantically similar to any campaign keyword with
// Leacock–Chodorow similarity at or above Threshold.
type Matcher struct {
	Taxonomy *Taxonomy
	// Threshold is the minimum LC similarity for clause (2). The paper
	// does not publish its cut-off, so the default is expressed in
	// path-length terms: concepts connected by a path of at most 3
	// nodes — the topic itself, its parent vertical, and sibling topics
	// under the same vertical — count as similar. This tight cut-off
	// reproduces Table 2's low audit-side fractions for the research
	// campaigns; widen it (e.g. PathSimilarity(5.5), one macro-vertical)
	// for the threshold ablation.
	Threshold float64
}

// NewMatcher returns a matcher over t with the default threshold,
// PathSimilarity(3.5): midway between a sibling 3-node path and a
// 4-node path leaving the vertical.
func NewMatcher(t *Taxonomy) *Matcher {
	return &Matcher{Taxonomy: t, Threshold: t.PathSimilarity(3.5)}
}

// KeywordMatch reports whether any publisher keyword exactly matches any
// campaign keyword (clause 1), case-insensitively.
func (m *Matcher) KeywordMatch(campaignKeywords, publisherKeywords []string) bool {
	set := make(map[string]struct{}, len(campaignKeywords))
	for _, k := range campaignKeywords {
		set[normalize(k)] = struct{}{}
	}
	for _, k := range publisherKeywords {
		if _, ok := set[normalize(k)]; ok {
			return true
		}
	}
	return false
}

// TopicMatch reports whether any publisher topic reaches the similarity
// threshold against any campaign keyword (clause 2). Topics or keywords
// missing from the taxonomy contribute nothing.
func (m *Matcher) TopicMatch(campaignKeywords, publisherTopics []string) bool {
	for _, topic := range publisherTopics {
		for _, kw := range campaignKeywords {
			if sim, ok := m.Taxonomy.WordSimilarity(topic, kw); ok && sim >= m.Threshold {
				return true
			}
		}
	}
	return false
}

// Relevant applies the full two-clause rule.
func (m *Matcher) Relevant(campaignKeywords, publisherKeywords, publisherTopics []string) bool {
	return m.KeywordMatch(campaignKeywords, publisherKeywords) ||
		m.TopicMatch(campaignKeywords, publisherTopics)
}

// Query is one campaign's keyword set compiled for repeated matching:
// the normalized keyword set is built once instead of once per
// publisher, which is where the per-call KeywordMatch allocations went
// when scoring thousands of publishers against the same campaign. It
// also remembers each topic's clause-(2) verdict: publishers draw their
// topics from one small taxonomy, so past the first few a publisher
// costs one map hit per topic rather than a memo walk per (topic,
// keyword) pair. That makes a Query single-goroutine; compile one per
// goroutine.
type Query struct {
	m        *Matcher
	keywords []string // normalized campaign keywords
	set      map[string]struct{}
	topics   map[string]bool // topic as given -> similar to some keyword
}

// Compile prepares campaignKeywords for repeated Relevant calls.
func (m *Matcher) Compile(campaignKeywords []string) *Query {
	q := new(Query)
	m.CompileInto(q, campaignKeywords)
	return q
}

// CompileInto is Compile into a Query the caller keeps (the zero Query
// will do): what q held is forgotten and its memory reused, so a caller
// that compiles one campaign after another allocates nothing once warm.
func (m *Matcher) CompileInto(q *Query, campaignKeywords []string) {
	q.m = m
	q.keywords = q.keywords[:0]
	if q.set == nil {
		q.set = make(map[string]struct{}, len(campaignKeywords))
		q.topics = make(map[string]bool, m.Taxonomy.NumConcepts()) // topics are concepts: no growth
	}
	clear(q.set)
	clear(q.topics)
	for _, k := range campaignKeywords {
		nk := normalize(k)
		q.keywords = append(q.keywords, nk)
		q.set[nk] = struct{}{}
	}
}

// KeywordMatch is clause (1) against the compiled keyword set.
func (q *Query) KeywordMatch(publisherKeywords []string) bool {
	for _, k := range publisherKeywords {
		if _, ok := q.set[normalize(k)]; ok {
			return true
		}
	}
	return false
}

// TopicMatch is clause (2) against the compiled keywords.
func (q *Query) TopicMatch(publisherTopics []string) bool {
	for i, topic := range publisherTopics {
		similar, seen := q.topics[topic]
		if !seen {
			similar = q.m.TopicMatch(q.keywords, publisherTopics[i:i+1])
			q.topics[topic] = similar
		}
		if similar {
			return true
		}
	}
	return false
}

// Relevant applies the full two-clause rule for one publisher.
func (q *Query) Relevant(publisherKeywords, publisherTopics []string) bool {
	return q.KeywordMatch(publisherKeywords) || q.TopicMatch(publisherTopics)
}
