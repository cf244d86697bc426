package audit

import (
	"slices"
	"sync"

	"adaudit/internal/semsim"
)

// foldScratch is the working set of one fold: the counting-sort (CSR)
// arrays that regroup a State's slots by dense id, and the buffers a
// fold gathers values into before sorting them — a fold never sorts a
// column, which may be live. Pooled whole and held per call (FullAudit
// fans folds out across a worker pool; scratch never lives on the
// Auditor or the State), so folds of one state can run side by side and
// a warm fold allocates nothing per user, publisher, seller or row.
type foldScratch struct {
	offsets []int32   // CSR: group id -> start in slots
	slots   []int32   // CSR: slots grouped by id
	counts  []int     // one counter per dictionary entry
	order   []int32   // dictionary ids in some sorted order
	times   []int64   // one user's timestamps
	floats  []float64 // the gaps between them
	rows    []poolRow // a vendor report's rows, for the pooling detector
	marks   []bool    // the Venn's: publisher id -> a vendor row names it
	union   dict      // the aggregate Venn's publishers, over every state
	keys    []freqKey // Figure 3's sort records
}

var scratchPool = sync.Pool{New: func() any {
	return &foldScratch{union: dict{ids: map[string]int32{}}}
}}

// pubFacts is all the report needs of one publisher's metadata: its
// rank, whether the source knows it, whether it is brand-unsafe, and
// whether it is relevant to the campaign's keywords.
type pubFacts struct {
	rank                    int
	known, unsafe, relevant bool
}

// pubView is one campaign's publishers resolved, indexed by the state's
// publisher id. It is scratch of one report, not state: the metadata
// source and the keywords are the caller's and may differ from one
// report to the next, so nothing of it outlives the folds that read it.
// query is the compiled keywords they were resolved against, kept for
// its buffers.
type pubView struct {
	facts []pubFacts
	query semsim.Query
}

var viewPool = sync.Pool{New: func() any { return new(pubView) }}

// resolve looks each of the state's publishers up once — one
// PublisherMeta call, one Query.Relevant — so the publisher folds
// (brand safety, context, popularity, the aggregate Venn) are sums over
// an array instead of one string-keyed lookup each. Without a metadata
// source every publisher is unknown; without a matcher or keywords none
// is relevant. Return the view with viewPool.Put.
func (a *Auditor) resolve(s *State, keywords []string) *pubView {
	v := viewPool.Get().(*pubView)
	pubs := s.cols.Pubs.keys
	v.facts = slices.Grow(v.facts[:0], len(pubs))[:len(pubs)]
	clear(v.facts)
	if a.Meta == nil {
		return v
	}
	match := a.Matcher != nil && len(keywords) > 0
	if match {
		a.Matcher.CompileInto(&v.query, keywords)
	}
	for pid, pub := range pubs {
		if m, ok := a.Meta.PublisherMeta(pub); ok {
			v.facts[pid] = pubFacts{
				rank: m.Rank, known: true, unsafe: m.Unsafe,
				relevant: match && v.query.Relevant(m.Keywords, m.Topics),
			}
		}
	}
	return v
}

// eachGroup counting-sorts the slots by dense id (n ids) and hands fn
// each group's slots in insertion order — the order the float folds need.
func (sc *foldScratch) eachGroup(idOf []int32, n int, fn func(id int, slots []int32)) {
	sc.offsets = slices.Grow(sc.offsets[:0], n+1)[:n+1]
	clear(sc.offsets)
	for _, id := range idOf {
		sc.offsets[id+1]++
	}
	for id := 0; id < n; id++ {
		sc.offsets[id+1] += sc.offsets[id]
	}
	// Filling advances each group's start to its end.
	sc.slots = slices.Grow(sc.slots[:0], len(idOf))[:len(idOf)]
	for slot, id := range idOf {
		sc.slots[sc.offsets[id]] = int32(slot)
		sc.offsets[id]++
	}
	start := int32(0)
	for id := 0; id < n; id++ {
		fn(id, sc.slots[start:sc.offsets[id]])
		start = sc.offsets[id]
	}
}

// gather copies the slots' timestamps into scratch, for the caller to sort.
func (sc *foldScratch) gather(times []int64, slots []int32) []int64 {
	sc.times = sc.times[:0]
	for _, sl := range slots {
		sc.times = append(sc.times, times[sl])
	}
	return sc.times
}
