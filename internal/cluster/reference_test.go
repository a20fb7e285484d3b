package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// refShiftApply is shiftOp's column-at-a-time apply as it stood before
// operators took whole blocks: y = M·x, one Dot per row, then y += x.
func refShiftApply(m *mat.Matrix, x, y []float64) {
	for i := range m.Rows() {
		y[i] = mat.Dot(m.Row(i), x)
	}
	for i := range y {
		y[i] += x[i]
	}
}

func TestShiftOpMatchesColumnApply(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 5, 9, 64, 131} {
		m := mat.New(n, n)
		for i := range n {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		op := &shiftOp{m: mat.MatrixOperator{M: m}}
		for _, b := range []int{1, 3, 4, 6, n} {
			if b > n {
				continue
			}
			q := mat.New(n, b)
			for i := range q.Data() {
				q.Data()[i] = rng.NormFloat64()
			}
			clear(q.Row(rng.Intn(n)))
			want := mat.New(n, b)
			y := make([]float64, n)
			for j := range b {
				refShiftApply(m, q.Col(j), y)
				want.SetCol(j, y)
			}
			for _, workers := range []int{0, 1, 3, 4} {
				z := mat.New(n, b)
				op.ApplyBlock(q, z, workers)
				for i, w := range want.Data() {
					if math.Float64bits(z.Data()[i]) != math.Float64bits(w) {
						t.Fatalf("n=%d b=%d workers=%d: element %d = %v, want %v", n, b, workers, i, z.Data()[i], w)
					}
				}
			}
		}
	}
}
