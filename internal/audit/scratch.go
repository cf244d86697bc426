package audit

import (
	"slices"
	"sync"
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
}

var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

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
