package tensor

import (
	"fmt"
	"math/rand"
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

func BenchmarkProjectedUnfoldMode2(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	y1 := benchFactor(400, 32, 3)
	y3 := benchFactor(500, 32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		ProjectedUnfold(f, 2, y1, y3)
	}
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
// corpus (mode 2 and mode 3).
func BenchmarkUnfoldingGramApplyBlock(b *testing.B) {
	f := benchSparse(400, 300, 500, 20000)
	op := UnfoldingGram(f, 2)
	for _, width := range []int{18, 56} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			q := benchFactor(300, width, 8)
			z := mat.New(300, width)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op.ApplyBlock(q, z, 0)
			}
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
