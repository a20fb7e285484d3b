package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if !almostEq(Norm2(x), 5, 1e-14) {
		t.Fatalf("Norm2 = %v, want 5", Norm2(x))
	}
	if NormInf([]float64{1, -7, 3}) != 7 {
		t.Fatal("NormInf wrong")
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	AXPY(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v, want [7 9]", y)
	}
	z := []float64{0, 3}
	if n := Normalize(z); !almostEq(n, 3, 1e-14) || !almostEq(z[1], 1, 1e-14) {
		t.Fatalf("Normalize: n=%v z=%v", n, z)
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Fatal("Normalize(0) should return 0")
	}
	if CosineSim([]float64{1, 0}, []float64{0, 1}) != 0 {
		t.Fatal("orthogonal cosine should be 0")
	}
	if !almostEq(CosineSim([]float64{2, 0}, []float64{5, 0}), 1, 1e-14) {
		t.Fatal("parallel cosine should be 1")
	}
	if CosineSim([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Values that would overflow if squared naively.
	big := 1e200
	x := []float64{big, big}
	want := big * math.Sqrt2
	if got := Norm2(x); math.IsInf(got, 1) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow guard failed: got %v want %v", got, want)
	}
}

func TestQRFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 20 {
		m := 3 + rng.Intn(10)
		n := 1 + rng.Intn(m)
		a := randMatrix(rng, m, n)
		qr := QRFactor(a)
		if !IsOrthonormal(qr.Q, 1e-10) {
			t.Fatalf("trial %d: Q not orthonormal", trial)
		}
		// R upper triangular.
		for i := range n {
			for j := range i {
				if math.Abs(qr.R.At(i, j)) > 1e-12 {
					t.Fatalf("trial %d: R not upper triangular at (%d,%d)", trial, i, j)
				}
			}
		}
		if !Equal(Mul(qr.Q, qr.R), a, 1e-10) {
			t.Fatalf("trial %d: QR != A", trial)
		}
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 10, 4)
	span := a.Clone()
	Orthonormalize(a)
	if !IsOrthonormal(a, 1e-12) {
		t.Fatal("result not orthonormal")
	}
	// Span preserved: projecting original columns onto the new basis
	// reproduces them.
	proj := Mul(a, TMul(a, span))
	if !Equal(proj, span, 1e-10) {
		t.Fatal("Orthonormalize changed the span")
	}
}

func TestOrthonormalizeRankDeficient(t *testing.T) {
	// Two identical columns: the second must be replaced by something
	// orthogonal, keeping the basis orthonormal.
	a := FromRows([][]float64{{1, 1}, {1, 1}, {0, 0}})
	Orthonormalize(a)
	if !IsOrthonormal(a, 1e-12) {
		t.Fatal("rank-deficient input did not produce orthonormal basis")
	}
}

func symmetric(rng *rand.Rand, n int) *Matrix {
	a := randMatrix(rng, n, n)
	return AddTo(a, a.T()).Scale(0.5)
}

func checkEigen(t *testing.T, a *Matrix, e *Eigen, tol float64) {
	t.Helper()
	n := a.Rows()
	// A·v = λ·v for each pair.
	for j := range len(e.Values) {
		v := e.Vectors.Col(j)
		av := a.MulVec(v)
		for i := range n {
			if math.Abs(av[i]-e.Values[j]*v[i]) > tol {
				t.Fatalf("eigenpair %d: residual %g at row %d", j, av[i]-e.Values[j]*v[i], i)
			}
		}
	}
	// Descending order.
	for j := 1; j < len(e.Values); j++ {
		if e.Values[j] > e.Values[j-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", e.Values)
		}
	}
}

func TestSymEigJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := range 10 {
		n := 2 + rng.Intn(12)
		a := symmetric(rng, n)
		e := SymEig(a)
		checkEigen(t, a, e, 1e-9)
		if !IsOrthonormal(e.Vectors, 1e-9) {
			t.Fatalf("trial %d: eigenvectors not orthonormal", trial)
		}
	}
}

func TestSymEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	e := SymEig(a)
	if !almostEq(e.Values[0], 3, 1e-12) || !almostEq(e.Values[1], 1, 1e-12) {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
}

func TestSymEigTridiagMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := range 8 {
		n := 2 + rng.Intn(30)
		a := symmetric(rng, n)
		e1 := SymEig(a)
		e2 := SymEigTridiag(a)
		checkEigen(t, a, e2, 1e-8)
		for j := range n {
			if !almostEq(e1.Values[j], e2.Values[j], 1e-8) {
				t.Fatalf("trial %d: eigenvalue %d mismatch: %v vs %v", trial, j, e1.Values[j], e2.Values[j])
			}
		}
	}
}

func TestSymEigTridiagLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 120
	a := symmetric(rng, n)
	e := SymEigTridiag(a)
	checkEigen(t, a, e, 1e-7)
	// Trace preserved.
	var tr, sum float64
	for i := range n {
		tr += a.At(i, i)
		sum += e.Values[i]
	}
	if !almostEq(tr, sum, 1e-8*float64(n)) {
		t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
	}
}

func TestSubspaceIterationTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, k := 60, 5
	// Build a PSD matrix with known spectrum.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(n - i)
	}
	q := Orthonormalize(randMatrix(rng, n, n))
	a := Mul(Mul(q, Diag(vals)), q.T())
	e := SubspaceIteration(&MatrixOperator{M: a}, k, SubspaceOptions{Seed: 42})
	for j := range k {
		if !almostEq(e.Values[j], vals[j], 1e-6) {
			t.Fatalf("eigenvalue %d = %v, want %v", j, e.Values[j], vals[j])
		}
	}
	checkEigen(t, a, e, 1e-4)
}

func TestSubspaceMatchesFullEig(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, k := 40, 6
	w := randMatrix(rng, n, 25)
	g := MulT(w, w) // PSD Gram matrix
	full := SymEig(g)
	sub := SubspaceIteration(&GramOperator{W: w}, k, SubspaceOptions{Seed: 1})
	for j := range k {
		if !almostEq(full.Values[j], sub.Values[j], 1e-7) {
			t.Fatalf("eigenvalue %d: full %v vs subspace %v", j, full.Values[j], sub.Values[j])
		}
	}
}

func TestThinSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dims := range [][2]int{{6, 4}, {4, 6}, {5, 5}, {10, 3}} {
		a := randMatrix(rng, dims[0], dims[1])
		s := ThinSVD(a)
		if !Equal(s.Reconstruct(), a, 1e-9) {
			t.Fatalf("%v: reconstruction failed", dims)
		}
		for j := 1; j < len(s.S); j++ {
			if s.S[j] > s.S[j-1]+1e-12 {
				t.Fatalf("%v: singular values not sorted: %v", dims, s.S)
			}
		}
		if !IsOrthonormal(s.U, 1e-8) || !IsOrthonormal(s.V, 1e-8) {
			t.Fatalf("%v: singular vectors not orthonormal", dims)
		}
	}
}

func TestThinSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: one nonzero singular value.
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	s := ThinSVD(a)
	if s.S[1] > 1e-10 {
		t.Fatalf("second singular value should be ~0, got %v", s.S[1])
	}
	if !Equal(s.Reconstruct(), a, 1e-10) {
		t.Fatal("rank-1 reconstruction failed")
	}
}

func TestTruncatedSVDMatchesThin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][2]int{{50, 20}, {20, 50}} {
		a := randMatrix(rng, dims[0], dims[1])
		thin := ThinSVD(a)
		k := 4
		tr := TruncatedSVD(a, k, SubspaceOptions{Seed: 2})
		for j := range k {
			if !almostEq(thin.S[j], tr.S[j], 1e-7) {
				t.Fatalf("%v: singular value %d: %v vs %v", dims, j, thin.S[j], tr.S[j])
			}
		}
		// Left vectors agree up to sign.
		for j := range k {
			d := math.Abs(Dot(thin.U.Col(j), tr.U.Col(j)))
			if !almostEq(d, 1, 1e-5) {
				t.Fatalf("%v: left singular vector %d misaligned (|dot|=%v)", dims, j, d)
			}
		}
	}
}

func TestLeftSVDMatchesThin(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][2]int{{8, 20}, {20, 8}, {12, 12}} {
		a := randMatrix(rng, dims[0], dims[1])
		thin := ThinSVD(a)
		k := 4
		left := LeftSVD(a, k, SubspaceOptions{Seed: 3})
		for j := range k {
			if !almostEq(thin.S[j], left.S[j], 1e-9) {
				t.Fatalf("%v: singular value %d: %v vs %v", dims, j, thin.S[j], left.S[j])
			}
			d := math.Abs(Dot(thin.U.Col(j), left.U.Col(j)))
			if !almostEq(d, 1, 1e-7) {
				t.Fatalf("%v: left vector %d misaligned (|dot|=%v)", dims, j, d)
			}
		}
	}
}

func TestSymMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randMatrix(rng, 7, 5)
	if !Equal(SymMulT(a), MulT(a, a), 1e-12) {
		t.Fatal("SymMulT disagrees with MulT")
	}
}

func TestSVDSingularValuesProperty(t *testing.T) {
	// Frobenius norm² == sum of squared singular values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 3+rng.Intn(5), 3+rng.Intn(5))
		s := ThinSVD(a)
		var ss float64
		for _, v := range s.S {
			ss += v * v
		}
		fn := a.FrobNorm()
		return math.Abs(ss-fn*fn) <= 1e-9*math.Max(1, fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenOfDiagonal(t *testing.T) {
	a := Diag([]float64{5, 1, 3})
	e := SymEig(a)
	want := []float64{5, 3, 1}
	for i, v := range want {
		if !almostEq(e.Values[i], v, 1e-13) {
			t.Fatalf("Values = %v, want %v", e.Values, want)
		}
	}
}
