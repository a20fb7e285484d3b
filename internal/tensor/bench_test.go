package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
)

func benchSparse(i1, i2, i3, nnz int) *Sparse3 {
	rng := rand.New(rand.NewSource(1))
	f := NewSparse3(i1, i2, i3)
	for range nnz {
		f.Append(rng.Intn(i1), rng.Intn(i2), rng.Intn(i3), 1)
	}
	f.Build()
	return f
}

func benchFactor(rows, cols int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, cols)
	for i := range rows {
		for j := range cols {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func BenchmarkBuild20k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	type e struct{ i, j, k int }
	entries := make([]e, 20000)
	for n := range entries {
		entries[n] = e{rng.Intn(400), rng.Intn(300), rng.Intn(500)}
	}
	b.ResetTimer()
	for range b.N {
		f := NewSparse3(400, 300, 500)
		for _, x := range entries {
			f.Append(x.i, x.j, x.k, 1)
		}
		f.Build()
	}
}

// benchLeaves runs bench once per leaf of the mat kernels, reporting
// madds multiply-adds per iteration as Gmadd/s; leaf=avx2 is skipped on a
// CPU without AVX2.
func benchLeaves(b *testing.B, madds int, bench func(b *testing.B, lf mat.Leaf)) {
	for _, lf := range []mat.Leaf{mat.LeafPortable, mat.LeafAVX2} {
		b.Run("leaf="+lf.String(), func(b *testing.B) {
			if !slices.Contains(mat.Leaves(), lf) {
				b.Skip("CPU without AVX2")
			}
			b.ReportAllocs()
			bench(b, lf)
			b.ReportMetric(float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
		})
	}
}

// BenchmarkProjectedUnfoldMode2 measures one one-shot mode-2 projected
// unfolding, its entry buckets included, on each leaf.
func BenchmarkProjectedUnfoldMode2(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	y1 := benchFactor(400, 32, 3)
	y3 := benchFactor(500, 32, 4)
	benchLeaves(b, f.NNZ()*32*32, func(b *testing.B, lf mat.Leaf) {
		for range b.N {
			p := NewProjector(f, 2)
			p.leaf = lf
			p.Unfold(y1, y3, 0)
		}
	})
}

func BenchmarkCore(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	y1 := benchFactor(400, 24, 5)
	y2 := benchFactor(300, 32, 6)
	y3 := benchFactor(500, 24, 7)
	b.ResetTimer()
	for range b.N {
		Core(f, y1, y2, y3)
	}
}

// BenchmarkUnfoldingGramApplyBlock measures one block apply of the
// sparse HOSVD operator at the two block widths of the wide_* benchmark
// corpus (mode 2 and mode 3), on each leaf.
func BenchmarkUnfoldingGramApplyBlock(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	op := UnfoldingGram(f, 2)
	for _, width := range []int{18, 56} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			q := benchFactor(300, width, 8)
			z := mat.New(300, width)
			// Each entry is used once per column in each of the two
			// sparse products.
			benchLeaves(b, 2*f.NNZ()*width, func(b *testing.B, lf mat.Leaf) {
				op.(*unfoldGramOp).leaf = lf
				for range b.N {
					op.ApplyBlock(q, z, 0)
				}
			})
		})
	}
}

func BenchmarkSliceDistanceSparse(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	idx := f.Mode2SliceIndex()
	b.ResetTimer()
	for i := range b.N {
		SliceDistanceFromIndex(idx, i%300, (i+7)%300)
	}
}

func BenchmarkMode2Matrix(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	b.ResetTimer()
	for range b.N {
		Mode2Matrix(f)
	}
}
