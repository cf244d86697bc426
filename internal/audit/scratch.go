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
// publisher id, and query the compiled keywords they were resolved
// against, kept for its buffers. Batch FullAudit and the static engine
// resolve into pooled scratch of one report (resolve); a live engine
// keeps one per campaign between calls (Views) and extends it by the
// publishers its state gained since. Neither is part of the state.
type pubView struct {
	facts []pubFacts
	query semsim.Query
}

var viewPool = sync.Pool{New: func() any { return new(pubView) }}

// resolve looks each of the state's publishers up once into pooled
// scratch. Return the view with viewPool.Put.
func (a *Auditor) resolve(s *State, keywords []string) *pubView {
	v := viewPool.Get().(*pubView)
	v.facts = v.facts[:0]
	a.extend(v, s, keywords)
	return v
}

// extend resolves the publishers s holds past len(v.facts) — every one
// for an empty view, which compiles keywords first — with one
// PublisherMeta call and one Query.Relevant each, so the publisher folds
// (brand safety, context, popularity, the aggregate Venn) are sums over
// an array instead of one string-keyed lookup each. Without a metadata
// source every publisher is unknown; without a matcher or keywords none
// is relevant.
func (a *Auditor) extend(v *pubView, s *State, keywords []string) {
	pubs := s.cols.Pubs.keys
	from := len(v.facts)
	v.facts = slices.Grow(v.facts, len(pubs)-from)[:len(pubs)]
	clear(v.facts[from:])
	if a.Meta == nil {
		return
	}
	match := a.Matcher != nil && len(keywords) > 0
	if match && from == 0 {
		a.Matcher.CompileInto(&v.query, keywords)
	}
	for pid := from; pid < len(pubs); pid++ {
		if m, ok := a.Meta.PublisherMeta(pubs[pid]); ok {
			v.facts[pid] = pubFacts{
				rank: m.Rank, known: true, unsafe: m.Unsafe,
				relevant: match && v.query.Relevant(m.Keywords, m.Topics),
			}
		}
	}
}

// Views keeps each campaign's resolved publisher view between calls,
// for an engine whose states only grow: Insert appends to a state's
// publisher dictionary and Update never changes a slot's publisher, so
// a view stays true of the publishers it holds, and the next call looks
// up only those added since. A view starts over when its
// campaign's keywords differ from the ones it was resolved against or
// its state is another one. Views belong to one Auditor, whose metadata
// source and matcher they were resolved with, and are not safe for
// concurrent use: their owner serialises the calls that take them, as
// it does the mutations of its states. The zero Views is empty and
// ready for use; a nil *Views resolves into per-call scratch instead.
type Views struct {
	byID map[string]*keptView
}

type keptView struct {
	pubView
	state    *State
	keywords []string
}

// Reset drops every view, for an owner that replaced its states.
func (vs *Views) Reset() { vs.byID = nil }

// kept returns campaign id's view of s, creating it, and started over
// when it was resolved for another state or other keywords; extend it
// with resolveKept.
func (vs *Views) kept(id string, s *State, keywords []string) *keptView {
	k := vs.byID[id]
	if k == nil {
		if vs.byID == nil {
			vs.byID = map[string]*keptView{}
		}
		k = new(keptView)
		vs.byID[id] = k
	}
	if k.state != s || !slices.Equal(k.keywords, keywords) {
		k.state, k.keywords, k.facts = s, slices.Clone(keywords), k.facts[:0]
	}
	return k
}

// resolveKept extends a kept view by the publishers its state gained.
func (a *Auditor) resolveKept(k *keptView) *pubView {
	a.extend(&k.pubView, k.state, k.keywords)
	return &k.pubView
}

// view resolves campaign id's state s against keywords: through its
// kept view when vs is not nil, into scratch otherwise. Hand it back
// with vs.done.
func (a *Auditor) view(vs *Views, id string, s *State, keywords []string) *pubView {
	if vs == nil {
		return a.resolve(s, keywords)
	}
	return a.resolveKept(vs.kept(id, s, keywords))
}

// done returns a view from view to the pool unless it is kept.
func (vs *Views) done(v *pubView) {
	if vs == nil {
		viewPool.Put(v)
	}
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
