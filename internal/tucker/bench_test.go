package tucker

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

func benchTensor(i1, i2, i3, nnz int) *tensor.Sparse3 {
	rng := rand.New(rand.NewSource(1))
	f := tensor.NewSparse3(i1, i2, i3)
	for range nnz {
		f.Append(rng.Intn(i1), rng.Intn(i2), rng.Intn(i3), 1)
	}
	f.Build()
	return f
}

// BenchmarkDecomposeSmall measures a full HOOI decomposition at the scale
// of the Tiny evaluation corpus.
func BenchmarkDecomposeSmall(b *testing.B) {
	f := benchTensor(80, 48, 60, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		Decompose(f, Options{J1: 12, J2: 16, J3: 12, Seed: uint64(i), MaxSweeps: 3})
	}
}

// BenchmarkDecomposeHOSVDInitAblation compares the two initialization
// strategies DESIGN.md calls out: HOSVD of the raw unfoldings vs random
// orthonormal starts.
func BenchmarkDecomposeHOSVDInitAblation(b *testing.B) {
	f := benchTensor(80, 48, 60, 3000)
	b.Run("hosvd-init", func(b *testing.B) {
		for i := range b.N {
			Decompose(f, Options{J1: 12, J2: 16, J3: 12, Seed: uint64(i), MaxSweeps: 3})
		}
	})
	b.Run("random-init", func(b *testing.B) {
		for i := range b.N {
			Decompose(f, Options{J1: 12, J2: 16, J3: 12, Seed: uint64(i), MaxSweeps: 3, SkipHOSVDInit: true})
		}
	})
}

// BenchmarkSweepCost isolates one ALS sweep's dominant kernel chain at a
// mid-size scale (projected unfolding + truncated left SVD).
func BenchmarkSweepCost(b *testing.B) {
	f := benchTensor(400, 300, 500, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		Decompose(f, Options{J1: 32, J2: 48, J3: 40, Seed: uint64(i), MaxSweeps: 1})
	}
}

// BenchmarkSweepDeepCore measures one warm-started ALS sweep (plus the
// final core) at the deep_core benchmark shape, 399×330×672 → 20×17×34:
// three projected unfoldings and three explicit-Gram subspace
// iterations, which is what a flush-to-visible update repeats MaxSweeps
// times.
func BenchmarkSweepDeepCore(b *testing.B) {
	f := datagen.Generate(datagen.LastFMLike()).Clean.Tensor()
	i1, i2, i3 := f.Dims()
	j1, j2, j3 := FromRatios(i1, i2, i3, 20, 20, 20)
	opts := Options{J1: j1, J2: j2, J3: j3, Seed: 1, MaxSweeps: 1}
	start := Decompose(f, opts)
	opts.WarmStart = &WarmStart{Y2: start.Y2, Y3: start.Y3}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		Decompose(f, opts)
	}
}
