// Package semsim implements the semantic-similarity machinery behind the
// paper's Context analysis (§4.2, Table 2): a publisher is contextually
// meaningful for a campaign if one of its keywords matches a campaign
// keyword exactly, or one of its topics is semantically close to a
// campaign keyword under the Leacock–Chodorow measure.
//
// The paper computes Leacock–Chodorow over WordNet. WordNet cannot ship
// in an offline, stdlib-only module, so this package embeds a compact
// IS-A taxonomy purpose-built for the display-advertising domain: the
// campaign verticals from Table 1 (research, football, universities,
// telematics) plus the surrounding content categories ad networks
// classify publishers into. The similarity formula is identical:
//
//	sim(a, b) = -log(len(a, b) / (2 * D))
//
// where len is the number of nodes on the shortest IS-A path between the
// concepts (inclusive) and D is the maximum depth of the taxonomy.
package semsim

import (
	"fmt"
	"strings"
)

// Taxonomy is an IS-A concept hierarchy with lemma (word form) indexes.
// It is immutable after Build and safe for concurrent use.
type Taxonomy struct {
	nodes    []node
	byName   map[string]int
	byLemma  map[string][]int
	maxDepth int

	// wordMemo caches WordSimilarity results (see memo.go): the
	// context analysis re-scores the same topic/keyword pairs across
	// thousands of publishers, and the taxonomy's immutability means a
	// computed pair never invalidates.
	wordMemo pairMemo
}

type node struct {
	name   string
	parent int // -1 for root
	depth  int // root = 1, matching the WordNet convention where D counts nodes
	lemmas []string
}

// TaxonomyBuilder accumulates concepts for a Taxonomy.
type TaxonomyBuilder struct {
	nodes  []node
	byName map[string]int
	err    error
}

// NewTaxonomyBuilder returns a builder with the given root concept.
func NewTaxonomyBuilder(root string, rootLemmas ...string) *TaxonomyBuilder {
	b := &TaxonomyBuilder{byName: map[string]int{}}
	b.nodes = append(b.nodes, node{name: root, parent: -1, depth: 1, lemmas: normalizeLemmas(rootLemmas)})
	b.byName[root] = 0
	return b
}

// Add registers concept name as a child of parent with the given lemmas.
// Errors (unknown parent, duplicate name) are deferred to Build.
func (b *TaxonomyBuilder) Add(name, parent string, lemmas ...string) *TaxonomyBuilder {
	if b.err != nil {
		return b
	}
	if _, dup := b.byName[name]; dup {
		b.err = fmt.Errorf("semsim: duplicate concept %q", name)
		return b
	}
	pi, ok := b.byName[parent]
	if !ok {
		b.err = fmt.Errorf("semsim: unknown parent %q for concept %q", parent, name)
		return b
	}
	b.byName[name] = len(b.nodes)
	b.nodes = append(b.nodes, node{
		name:   name,
		parent: pi,
		depth:  b.nodes[pi].depth + 1,
		lemmas: normalizeLemmas(lemmas),
	})
	return b
}

// Build finalises the taxonomy.
func (b *TaxonomyBuilder) Build() (*Taxonomy, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Taxonomy{
		nodes:   b.nodes,
		byName:  b.byName,
		byLemma: map[string][]int{},
	}
	for i, n := range b.nodes {
		if n.depth > t.maxDepth {
			t.maxDepth = n.depth
		}
		for _, l := range n.lemmas {
			t.byLemma[l] = append(t.byLemma[l], i)
		}
		// The concept name itself is also a lemma.
		nm := normalize(n.name)
		if !containsInt(t.byLemma[nm], i) {
			t.byLemma[nm] = append(t.byLemma[nm], i)
		}
	}
	return t, nil
}

// NumConcepts returns the number of concepts.
func (t *Taxonomy) NumConcepts() int { return len(t.nodes) }

// LookupLemma returns the concepts a word form maps to, or nil if the
// word is not in the taxonomy's vocabulary. Matching is case- and
// whitespace-insensitive.
func (t *Taxonomy) LookupLemma(word string) []string {
	idxs := t.byLemma[normalize(word)]
	if len(idxs) == 0 {
		return nil
	}
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = t.nodes[idx].name
	}
	return out
}

// HasConcept reports whether the taxonomy contains the named concept.
func (t *Taxonomy) HasConcept(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// pathLen returns the number of nodes on the shortest path between
// concepts a and b through their lowest common ancestor (inclusive of
// both endpoints), the WordNet "len" used by Leacock–Chodorow.
func (t *Taxonomy) pathLen(a, b int) int {
	// Walk both nodes to the root, recording depths; classic LCA by
	// depth-levelling.
	x, y := a, b
	for t.nodes[x].depth > t.nodes[y].depth {
		x = t.nodes[x].parent
	}
	for t.nodes[y].depth > t.nodes[x].depth {
		y = t.nodes[y].parent
	}
	for x != y {
		x = t.nodes[x].parent
		y = t.nodes[y].parent
	}
	lca := x
	edges := (t.nodes[a].depth - t.nodes[lca].depth) + (t.nodes[b].depth - t.nodes[lca].depth)
	return edges + 1 // nodes = edges + 1
}

func normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

func normalizeLemmas(ls []string) []string {
	out := make([]string, 0, len(ls))
	for _, l := range ls {
		out = append(out, normalize(l))
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
