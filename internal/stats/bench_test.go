package stats

import "testing"

func BenchmarkAliasSample(b *testing.B) {
	rng := NewRNG(1)
	weights := make([]float64, 150_000)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	s, err := NewAliasSampler(rng, weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkAliasBuild150K(b *testing.B) {
	rng := NewRNG(1)
	weights := make([]float64, 150_000)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAliasSampler(rng, weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantile(b *testing.B) {
	rng := NewRNG(2)
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.5)
	}
}

func BenchmarkPareto(b *testing.B) {
	rng := NewRNG(3)
	for i := 0; i < b.N; i++ {
		rng.Pareto(1, 1.25)
	}
}
