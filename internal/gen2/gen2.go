// Package gen2 is the repo's one bounded cache: a two-generation map.
// When the current generation reaches its limit it becomes the previous
// one and a fresh current generation starts, so an entry survives at
// least one and at most two generations of distinct keys, and memory is
// bounded at twice the limit with no per-entry bookkeeping. The
// collector's ingest caches (interned strings, address enrichment, user
// keys) rotate this way. It is for what may be forgotten and derived
// again: nothing that must be remembered exactly, such as which
// impressions were counted, belongs in it (the store keeps that).
//
// A Map is not safe for concurrent use: every caller already holds a
// mutex around a compound operation (check-then-record, batch intern),
// so the lock stays theirs.
package gen2

// Map is a bounded two-generation map from K to V.
type Map[K comparable, V any] struct {
	cur, prev map[K]V
	limit     int
}

// New returns an empty Map holding at most limit entries per
// generation (so at most 2×limit in total). Nothing is allocated until
// the first Put.
func New[K comparable, V any](limit int) *Map[K, V] {
	return &Map[K, V]{limit: limit}
}

// Get looks k up in both generations, promoting a previous-generation
// hit into the current one so hot entries survive rotation.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.prev[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Put records k → v in the current generation, rotating first when it
// is full. The first generation starts unsized, so a map that sees few
// keys stays small; a rotation proves the map busy, and the generation
// it starts is sized for a quarter of the limit.
func (m *Map[K, V]) Put(k K, v V) {
	switch {
	case m.cur == nil:
		m.cur = map[K]V{}
	case len(m.cur) >= m.limit:
		m.prev = m.cur
		m.cur = make(map[K]V, m.limit/4)
	}
	m.cur[k] = v
}

// Intern returns the canonical string equal to b from an identity map,
// copying b at most once per two generations. The map index
// expressions take the string(b) conversion directly so the compiler
// elides the conversion's allocation on the lookup path — which is why
// this is a function here rather than a Get at the call site.
func Intern(m *Map[string, string], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := m.cur[string(b)]; ok {
		return s
	}
	if s, ok := m.prev[string(b)]; ok {
		m.Put(s, s)
		return s
	}
	s := string(b)
	m.Put(s, s)
	return s
}
