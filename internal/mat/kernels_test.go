package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file hold the block kernels to the bits of the
// column-at-a-time code in reference_test.go. The shapes are deliberately
// awkward for kernels that work in 4×8 tiles: widths and heights that are
// not multiples of four or eight, single columns, empty inner products,
// blocks as wide as the operator, rows of +0 and of −0, and infinities
// placed where a dropped zero-skip would turn a finite sum into NaN.
// They run on the leaf the process picks; tile_test.go runs every leaf.

var kernelWorkers = []int{0, 1, 3, 4}

func requireSameBits(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", label,
				i/want.cols, i%want.cols, got.data[i], math.Float64bits(got.data[i]), w, math.Float64bits(w))
		}
	}
}

func requireSameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	requireSameBits(t, label, FromData(1, len(got), got), FromData(1, len(want), want))
}

// zeroRows overwrites one row of m with +0 and, when there is a second,
// another with −0.
func zeroRows(rng *rand.Rand, m *Matrix) {
	if m.rows == 0 {
		return
	}
	clear(m.Row(rng.Intn(m.rows)))
	if m.rows > 1 {
		row := m.Row(rng.Intn(m.rows))
		for j := range row {
			row[j] = math.Copysign(0, -1)
		}
	}
}

var kernelShapes = [][2]int{{1, 1}, {1, 7}, {2, 3}, {4, 4}, {5, 3}, {7, 9}, {9, 7}, {13, 6}, {17, 33}, {70, 41}}

func TestSymMulTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range kernelShapes {
		a := randMatrix(rng, shape[0], shape[1])
		zeroRows(rng, a)
		want := refSymMulT(a, 1)
		for _, workers := range kernelWorkers {
			requireSameBits(t, fmt.Sprintf("%d×%d workers=%d", shape[0], shape[1], workers), symMulTW(a, workers), want)
		}
	}
}

// TestProductsMatchReference covers Mul, TMul and MulT. The left operand
// has zeros (of both signs) scattered through it and whole zero rows,
// the right operand an infinity in every row: each product has terms
// 0·∞ that the reference skips.
func TestProductsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sprinkle := func(m *Matrix) {
		for i := range m.data {
			switch rng.Intn(9) {
			case 0:
				m.data[i] = 0
			case 1:
				m.data[i] = math.Copysign(0, -1)
			}
		}
		zeroRows(rng, m)
	}
	for _, shape := range kernelShapes {
		for _, inner := range []int{0, 1, 3, 4, 6, 8, 9} {
			rows, cols := shape[0], shape[1]
			label := fmt.Sprintf("%d×%d×%d", rows, inner, cols)

			a, b := randMatrix(rng, rows, inner), randMatrix(rng, inner, cols)
			sprinkle(a)
			for k := range inner {
				b.Set(k, rng.Intn(cols), math.Inf(1))
			}
			want := refMul(a, b, 1)
			for _, workers := range kernelWorkers {
				requireSameBits(t, fmt.Sprintf("Mul %s workers=%d", label, workers), mulW(a, b, workers), want)
			}

			at := a.T() // inner×rows
			want = refTMul(at, b, 1)
			for _, workers := range kernelWorkers {
				requireSameBits(t, fmt.Sprintf("TMul %s workers=%d", label, workers), tmulW(at, b, workers), want)
			}

			c := randMatrix(rng, cols, inner)
			want = refMulT(a, c, 1)
			for _, workers := range kernelWorkers {
				requireSameBits(t, fmt.Sprintf("MulT %s workers=%d", label, workers), mulTW(a, c, workers), want)
			}
		}
	}
}

// TestZeroSkipIsObservable pins why the skips are kept: with an infinity
// opposite a zero, skipping the term and adding it differ.
func TestZeroSkipIsObservable(t *testing.T) {
	a := FromRows([][]float64{{0, 2, 1, 1, 1}})
	b := FromRows([][]float64{{math.Inf(1)}, {3}, {1}, {1}, {1}})
	if got := mulW(a, b, 1).At(0, 0); got != 9 {
		t.Fatalf("Mul kept the 0·∞ term: got %v, want 9", got)
	}
	if got := tmulW(a.T(), b, 1).At(0, 0); got != 9 {
		t.Fatalf("TMul kept the 0·∞ term: got %v, want 9", got)
	}
	if got := mulTW(a, b.T(), 1).At(0, 0); !math.IsNaN(got) {
		t.Fatalf("MulT is one Dot per element and skips nothing: got %v, want NaN", got)
	}
}

func TestOrthonormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type shape struct {
		m, n int
		kind string
	}
	shapes := []shape{
		// Below cholQRMinWork: Gram–Schmidt.
		{1, 1, "random"}, {9, 1, "random"}, {12, 5, "random"}, {40, 7, "random"}, {41, 41, "random"},
		// Above it: two rounds of Cholesky-QR, widths around multiples of 4.
		{300, 30, "random"}, {301, 31, "random"}, {302, 33, "random"}, {1100, 16, "random"}, {1101, 17, "random"},
		// Rank-deficient: Cholesky fails and Gram–Schmidt substitutes
		// coordinate vectors.
		{300, 30, "deficient"}, {12, 5, "deficient"}, {40, 7, "zero"},
	}
	for _, s := range shapes {
		a := randMatrix(rng, s.m, s.n)
		switch s.kind {
		case "deficient":
			for i := range s.m {
				a.Set(i, s.n-1, a.At(i, 0))
				if s.n > 3 {
					a.Set(i, 2, 0)
				}
			}
		case "zero":
			clear(a.data)
		}
		want := refOrthonormalize(a.Clone(), 1)
		var scratch orthoScratch // reused across worker counts, as SubspaceIteration reuses it
		for _, workers := range kernelWorkers {
			got := scratch.orthonormalize(a.Clone(), workers)
			requireSameBits(t, fmt.Sprintf("%d×%d %s workers=%d", s.m, s.n, s.kind, workers), got, want)
		}
	}
}

func TestEigensolversMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 5, 8, 21, 38, 65, 70} {
		a := symmetric(rng, n)
		if n > 3 {
			// A decoupled coordinate exercises the zero-rotation skip.
			for k := range n {
				a.Set(2, k, 0)
				a.Set(k, 2, 0)
			}
		}
		got, want := SymEig(a), refSymEig(a)
		requireSameFloats(t, fmt.Sprintf("Jacobi n=%d values", n), got.Values, want.Values)
		requireSameBits(t, fmt.Sprintf("Jacobi n=%d vectors", n), got.Vectors, want.Vectors)

		got, want = SymEigTridiag(a), refSymEigTridiag(a)
		requireSameFloats(t, fmt.Sprintf("tridiagonal n=%d values", n), got.Values, want.Values)
		requireSameBits(t, fmt.Sprintf("tridiagonal n=%d vectors", n), got.Vectors, want.Vectors)
	}
}

// applyColumns applies a reference operator to q one column at a time,
// the way SubspaceIteration used to.
func applyColumns(op refOperator, q *Matrix) *Matrix {
	n, b := q.Dims()
	z := New(n, b)
	y := make([]float64, n)
	for j := range b {
		op.Apply(q.Col(j), y)
		z.SetCol(j, y)
	}
	return z
}

// operatorPair is a dense operator next to its column-at-a-time
// reference.
type operatorPair struct {
	name  string
	block Operator
	ref   refOperator
}

// operatorPairs returns fresh operators over w: W·Wᵀ as an explicit
// matrix and as a product, and WᵀW.
func operatorPairs(w *Matrix) []operatorPair {
	g := symMulTW(w, 1)
	return []operatorPair{
		{"matrix", &MatrixOperator{M: g}, refMatrixOperator{M: g}},
		{"gram", &GramOperator{W: w}, refGramOperator{W: w}},
		{"gramT", &gramTOperator{w: w}, refGramTOperator{w: w}},
	}
}

func TestApplyBlockMatchesColumnApply(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {6, 10}, {9, 9}, {37, 22}, {130, 41}} {
		w := randMatrix(rng, shape[0], shape[1])
		zeroRows(rng, w)
		for _, pair := range operatorPairs(w) {
			n := pair.block.Dim()
			for _, b := range []int{1, 2, 3, 4, 5, 7, n} {
				if b > n {
					continue
				}
				q := randMatrix(rng, n, b)
				zeroRows(rng, q)
				want := applyColumns(pair.ref, q)
				for _, workers := range kernelWorkers {
					// Dirty output and reused scratch: every apply must
					// overwrite all of z whatever the last one left.
					z := randMatrix(rng, n, b)
					pair.block.ApplyBlock(q, z, workers)
					requireSameBits(t, fmt.Sprintf("%s %d×%d b=%d workers=%d", pair.name, shape[0], shape[1], b, workers), z, want)
				}
			}
		}
	}
}

func TestSubspaceIterationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []struct {
		rows, cols, k, maxIter int
	}{
		{9, 14, 1, 0},
		{9, 14, 9, 0},    // block as wide as the operator
		{40, 25, 3, 30},  // rank-deficient Gram: 25 < 40
		{130, 90, 7, 30}, // Gram–Schmidt blocks
		{90, 130, 20, 30},
		{260, 70, 28, 9}, // 260×32 blocks: Cholesky-QR
	}
	for _, c := range cases {
		w := randMatrix(rng, c.rows, c.cols)
		for _, pair := range operatorPairs(w) {
			k := min(c.k, pair.ref.Dim())
			opts := SubspaceOptions{Seed: uint64(c.rows), MaxIter: c.maxIter, Workers: 1}
			want := refSubspaceIteration(pair.ref, k, opts)
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				got := SubspaceIteration(pair.block, k, opts) // the operator's scratch carries over
				label := fmt.Sprintf("%s %d×%d k=%d workers=%d", pair.name, c.rows, c.cols, k, workers)
				requireSameFloats(t, label+" values", got.Values, want.Values)
				requireSameBits(t, label+" vectors", got.Vectors, want.Vectors)
			}
		}
	}
}

// TestSubspaceIterationAllocations is the ceiling that keeps the
// iteration's temporaries allocated once per call: the blocks, their
// packed panels, the Ritz matrices and the orthonormalization scratch,
// and per Rayleigh–Ritz round only what the dense b×b eigensolver
// returns. The column-at-a-time iteration it replaced made 390
// allocations and 1.8 MB here, three n×b blocks of them per round.
func TestSubspaceIterationAllocations(t *testing.T) {
	const n, k, maxIter = 300, 28, 12 // four Rayleigh–Ritz rounds
	g := symMulTW(randMatrix(rand.New(rand.NewSource(17)), n, n+20), 1)
	run := func() {
		SubspaceIteration(&MatrixOperator{M: g}, k, SubspaceOptions{Seed: 1, MaxIter: maxIter, Tol: 1e-300, Workers: 1})
	}
	if allocs, ceiling := testing.AllocsPerRun(3, run), 40.0+10*maxIter; allocs > ceiling {
		t.Errorf("SubspaceIteration made %.0f allocations over %d applies, ceiling %.0f", allocs, maxIter, ceiling)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	// Seven n×b blocks (two iterates, two Ritz blocks, and the packed
	// panels of z, of the orthonormalization and of the operator), the
	// n×k result, and room for the b×b matrices of four eigensolves.
	block := uint64(n * (k + 4) * 8)
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, 13*block; got > ceiling {
		t.Errorf("SubspaceIteration allocated %d bytes, ceiling %d (13 blocks of %d×%d)", got, ceiling, n, k+4)
	}
}
