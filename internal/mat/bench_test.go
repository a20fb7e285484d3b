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

func BenchmarkQRFactor256x64(b *testing.B) {
	x := benchMatrix(256, 64, 4)
	b.ResetTimer()
	for range b.N {
		QRFactor(x)
	}
}

func BenchmarkOrthonormalizeCholQR(b *testing.B) {
	x := benchMatrix(1024, 64, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		Orthonormalize(x.Clone())
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
