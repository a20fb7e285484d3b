package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul256(b *testing.B) {
	x := benchMatrix(256, 256, 1)
	y := benchMatrix(256, 256, 2)
	b.ResetTimer()
	for range b.N {
		Mul(x, y)
	}
}

func BenchmarkSymMulT512x128(b *testing.B) {
	x := benchMatrix(512, 128, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		SymMulT(x)
	}
}

// BenchmarkMulTTiled measures the tiled product alone, serially and with
// its packing, at two deep_core shapes: a block apply (340×340 · (38×340)ᵀ)
// and the Gram product of a 399×578 unfolding. Each leaf runs beside the
// dotRows loop it replaced; leaf=avx2 is skipped on a CPU without AVX2.
func BenchmarkMulTTiled(b *testing.B) {
	m, block := benchMatrix(340, 340, 11), benchMatrix(38, 340, 12)
	unfolding := benchMatrix(399, 578, 13)
	z, g := New(340, 38), New(399, 399)
	shapes := []struct {
		name  string
		madds int
		tiled func(lf Leaf, p *panels)
		ref   func()
	}{
		{"apply", 340 * 340 * 38, func(lf Leaf, p *panels) {
			p.packRows(block)
			tiledInto(lf, z, rowsOf(m), p, 1, false)
		}, func() {
			for i := range m.rows {
				dotRows(z.Row(i), m.Row(i), block, 0, block.rows, false)
			}
		}},
		{"gram", 399 * 400 / 2 * 578, func(lf Leaf, p *panels) {
			p.packRows(unfolding)
			tiledUpperInto(lf, g, rowsOf(unfolding), p, 1, false)
		}, func() {
			for i := range unfolding.rows {
				dotRows(g.Row(i), unfolding.Row(i), unfolding, i, unfolding.rows, false)
			}
		}},
	}
	for _, s := range shapes {
		for _, impl := range []string{"dotRows", LeafPortable.String(), LeafAVX2.String()} {
			b.Run(s.name+"/leaf="+impl, func(b *testing.B) {
				var p panels
				run := s.ref
				switch impl {
				case LeafPortable.String():
					run = func() { s.tiled(LeafPortable, &p) }
				case LeafAVX2.String():
					if !haveAVX2 {
						b.Skip("CPU without AVX2")
					}
					run = func() { s.tiled(LeafAVX2, &p) }
				}
				for range b.N {
					run()
				}
				b.ReportMetric(float64(s.madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
			})
		}
	}
}

func BenchmarkQRFactor256x64(b *testing.B) {
	x := benchMatrix(256, 64, 4)
	b.ResetTimer()
	for range b.N {
		QRFactor(x)
	}
}

// BenchmarkOrthonormalizeCholQR orthonormalizes a 1024×64 block: two
// rounds of Cholesky-QR, each a Gram product and a forward substitution
// of m·n²/2 multiply-adds, on each leaf; leaf=avx2 is skipped on a CPU
// without AVX2.
func BenchmarkOrthonormalizeCholQR(b *testing.B) {
	const m, n = 1024, 64
	x := benchMatrix(m, n, 5)
	for _, lf := range []Leaf{LeafPortable, LeafAVX2} {
		b.Run("leaf="+lf.String(), func(b *testing.B) {
			if lf == LeafAVX2 && !haveAVX2 {
				b.Skip("CPU without AVX2")
			}
			b.ReportAllocs()
			for range b.N {
				new(orthoScratch).orthonormalize(lf, x.Clone(), 0)
			}
			b.ReportMetric(2*m*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
		})
	}
}

func BenchmarkSymEigJacobi64(b *testing.B) {
	x := benchMatrix(64, 64, 6)
	s := AddTo(x, x.T())
	b.ResetTimer()
	for range b.N {
		SymEig(s)
	}
}

func BenchmarkSymEigTridiag256(b *testing.B) {
	x := benchMatrix(256, 256, 7)
	s := AddTo(x, x.T())
	b.ResetTimer()
	for range b.N {
		SymEigTridiag(s)
	}
}

func BenchmarkSubspaceIterationTop16(b *testing.B) {
	w := benchMatrix(512, 256, 8)
	op := &GramOperator{W: w}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		SubspaceIteration(op, 16, SubspaceOptions{Seed: uint64(i)})
	}
}

func BenchmarkLeftSVD512x256k32(b *testing.B) {
	w := benchMatrix(512, 256, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		LeftSVD(w, 32, SubspaceOptions{Seed: uint64(i)})
	}
}

func BenchmarkThinSVD128(b *testing.B) {
	w := benchMatrix(128, 96, 10)
	b.ResetTimer()
	for range b.N {
		ThinSVD(w)
	}
}
