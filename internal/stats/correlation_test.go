package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 100, 1000, 10000, 100000} // monotone, nonlinear
	rho, err := SpearmanRho(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho = %v, want 1", rho)
	}
	down := []float64{5, 4, 3, 2, 1}
	rho, err = SpearmanRho(xs, down)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho+1) > 1e-12 {
		t.Fatalf("rho = %v, want -1", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	rho, err := SpearmanRho(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("tied identical samples rho = %v, want 1", rho)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := SpearmanRho([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SpearmanRho([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single observation accepted")
	}
	if _, err := SpearmanRho([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant input accepted")
	}
}

// Properties: rho is symmetric, bounded, and invariant under monotone
// transforms of either input.
func TestSpearmanProperties(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := NewRNG(seed)
		n := rng.Intn(30) + 3
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		rho, err := SpearmanRho(xs, ys)
		if err != nil {
			return true // constant inputs are valid rejections
		}
		if rho < -1-1e-9 || rho > 1+1e-9 {
			return false
		}
		sym, err := SpearmanRho(ys, xs)
		if err != nil || math.Abs(sym-rho) > 1e-9 {
			return false
		}
		// Monotone transform of xs leaves ranks unchanged.
		txs := make([]float64, n)
		for i, x := range xs {
			txs[i] = math.Exp(x)
		}
		trho, err := SpearmanRho(txs, ys)
		return err == nil && math.Abs(trho-rho) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
