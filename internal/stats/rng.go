// Package stats provides the deterministic statistical substrate used by
// the adaudit simulator and analyses: seeded random number generation,
// heavy-tailed samplers (Pareto, log-normal, alias), quantile estimation,
// logarithmic bucketing, histograms and set (Venn) accounting.
//
// Every stochastic component in adaudit draws from a stats.RNG constructed
// from an explicit seed, so entire campaign simulations replay bit-for-bit.
package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random number generator. It wraps math/rand with
// an explicit seed and adds the derived-stream and distribution helpers the
// simulator needs. RNG is not safe for concurrent use; derive one stream
// per goroutine with Fork.
type RNG struct {
	src  *rand.Rand
	seed int64
}

// NewRNG returns a generator seeded with seed. Equal seeds produce equal
// streams across runs and platforms.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the generator was constructed with.
func (r *RNG) Seed() int64 { return r.seed }

// Fork derives an independent generator from this one's seed and a label.
// Forking is stable: the same (seed, label) pair always yields the same
// stream, regardless of how much of the parent stream has been consumed.
// This keeps subsystems (publisher universe, user fleet, delivery, ...)
// decoupled: adding draws to one does not perturb the others.
func (r *RNG) Fork(label string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(r.seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return NewRNG(int64(h.Sum64()))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 { return r.src.Int63n(n) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Bool returns true with probability p. p outside [0,1] saturates.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Exp returns an exponentially distributed float64 with the given mean.
func (r *RNG) Exp(mean float64) float64 { return r.src.ExpFloat64() * mean }

// LogNormal returns a log-normally distributed value with the given
// location mu and scale sigma of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Pareto returns a Pareto(alpha)-distributed value with minimum xm.
// Smaller alpha means a heavier tail; alpha must be > 0.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Pick returns a uniformly chosen element of xs. It panics if xs is empty.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// WeightedPick returns an index into weights chosen with probability
// proportional to its weight. Non-positive weights are treated as zero.
// It panics if the total weight is not positive.
func WeightedPick(r *RNG, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedPick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
