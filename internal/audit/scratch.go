package audit

import (
	"sync"
	"time"
)

// slicePool recycles the flat scratch buffers the per-campaign analyses
// fill and fold. FullAudit fans dimensions out across a worker pool, so
// a sync.Pool gives each worker its own warm buffer without any
// coordination, and the GC drops idle ones: scratch never lives on the
// Auditor. At paper scale this removes one multi-hundred-KiB allocation
// per viewability task and five allocations per seller from pooling.
type slicePool[T any] struct{ pool sync.Pool }

var (
	floatPool   slicePool[float64]
	poolRowPool slicePool[poolRow]
)

// get returns an empty buffer with at least the given capacity. Return
// it with put once every value derived from it has been copied out.
func (p *slicePool[T]) get(capacity int) []T {
	if buf, _ := p.pool.Get().(*[]T); buf != nil && cap(*buf) >= capacity {
		return (*buf)[:0]
	}
	return make([]T, 0, capacity)
}

// put recycles a buffer obtained from get. The boxed header costs one
// word-sized allocation, traded for the buffer's backing array.
func (p *slicePool[T]) put(buf []T) { p.pool.Put(&buf) }

// behaviorScratch is the flat working set of one Auditor.Behavior call:
// the impressions as slot-indexed columns, users and publishers interned
// to dense ids, and the counting-sort (CSR) arrays that regroup slots by
// id. Pooled whole: a warm call allocates nothing per user or publisher.
type behaviorScratch struct {
	userIDs, pubIDs map[string]int32 // key -> dense id, first-seen order
	users, pubs     []string         // dense id -> key
	userOf, pubOf   []int32          // slot -> dense id
	times           []time.Time      // slot -> impression timestamp
	exposures       []float64        // slot -> exposure seconds
	visMeasured     []bool           // slot -> visibility measured
	visFrac         []float64        // slot -> max visible fraction
	dataCenter      []bool           // slot -> caught by the DC cascade
	userConvs       []int32          // user id -> conversions
	offsets         []int32          // CSR: group id -> start in slots
	slots           []int            // CSR: slots grouped by id
	cadence         []time.Time      // one user's timestamps, for CadenceCV
}

var behaviorPool = sync.Pool{New: func() any {
	return &behaviorScratch{userIDs: map[string]int32{}, pubIDs: map[string]int32{}}
}}

// getBehaviorScratch returns an empty scratch whose slot columns hold n
// impressions without growing.
func getBehaviorScratch(n int) *behaviorScratch {
	sc := behaviorPool.Get().(*behaviorScratch)
	clear(sc.userIDs)
	clear(sc.pubIDs)
	sc.users, sc.pubs = sc.users[:0], sc.pubs[:0]
	sc.userOf, sc.pubOf, sc.times = sized(sc.userOf, n), sized(sc.pubOf, n), sized(sc.times, n)
	sc.exposures, sc.visFrac = sized(sc.exposures, n), sized(sc.visFrac, n)
	sc.visMeasured, sc.dataCenter = sized(sc.visMeasured, n), sized(sc.dataCenter, n)
	return sc
}

// sized returns buf emptied, reallocated if it cannot hold capacity.
func sized[T any](buf []T, capacity int) []T {
	if cap(buf) < capacity {
		return make([]T, 0, capacity)
	}
	return buf[:0]
}

// intern returns key's dense id, assigning the next one on first sight.
func intern(ids map[string]int32, keys *[]string, key string) int32 {
	id, ok := ids[key]
	if !ok {
		id = int32(len(*keys))
		ids[key] = id
		*keys = append(*keys, key)
	}
	return id
}

// eachGroup counting-sorts the slots by dense id and hands fn each
// group's slots in insertion order — the order the float folds need.
func (sc *behaviorScratch) eachGroup(idOf []int32, keys []string, fn func(id int, key string, slots []int)) {
	sc.offsets = sized(sc.offsets, len(keys)+1)[:len(keys)+1]
	clear(sc.offsets)
	for _, id := range idOf {
		sc.offsets[id+1]++
	}
	for id := range keys {
		sc.offsets[id+1] += sc.offsets[id]
	}
	// Filling advances each group's start to its end.
	sc.slots = sized(sc.slots, len(idOf))[:len(idOf)]
	for slot, id := range idOf {
		sc.slots[sc.offsets[id]] = slot
		sc.offsets[id]++
	}
	start := int32(0)
	for id, key := range keys {
		fn(id, key, sc.slots[start:sc.offsets[id]])
		start = sc.offsets[id]
	}
}
