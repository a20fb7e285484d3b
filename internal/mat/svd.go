package mat

import (
	"fmt"
	"math"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ with
// singular values in descending order.
type SVD struct {
	U *Matrix   // m×k, orthonormal columns (left singular vectors)
	S []float64 // k singular values, descending
	V *Matrix   // n×k, orthonormal columns (right singular vectors)
}

// ThinSVD computes the full thin SVD of a (k = min(m,n)) by
// eigendecomposing the smaller Gram matrix and recovering the other side
// of the factorization. Intended for small to medium matrices; for the
// leading singular triplets of large matrices use TruncatedSVD.
func ThinSVD(a *Matrix) *SVD {
	m, n := a.Dims()
	k := m
	if n < k {
		k = n
	}
	if k == 0 {
		return &SVD{U: New(m, 0), S: nil, V: New(n, 0)}
	}
	if n <= m {
		// Eigendecompose AᵀA (n×n), recover U = A·V·S⁻¹.
		g := TMul(a, a)
		eig := symEigAuto(g)
		s := make([]float64, k)
		v := New(n, k)
		for j := range k {
			ev := eig.Values[j]
			if ev < 0 {
				ev = 0
			}
			s[j] = math.Sqrt(ev)
			v.SetCol(j, eig.Vectors.Col(j))
		}
		u := Mul(a, v)
		for j := range k {
			if s[j] > svdRankTol(s[0], m, n) {
				for i := range m {
					u.Set(i, j, u.At(i, j)/s[j])
				}
			} else {
				// Null singular value: zero the column; callers treating U
				// as a basis should truncate by rank.
				for i := range m {
					u.Set(i, j, 0)
				}
			}
		}
		return &SVD{U: u, S: s, V: v}
	}
	// m < n: eigendecompose AAᵀ (m×m), recover V = Aᵀ·U·S⁻¹.
	g := MulT(a, a)
	eig := symEigAuto(g)
	s := make([]float64, k)
	u := New(m, k)
	for j := range k {
		ev := eig.Values[j]
		if ev < 0 {
			ev = 0
		}
		s[j] = math.Sqrt(ev)
		u.SetCol(j, eig.Vectors.Col(j))
	}
	v := TMul(a, u)
	for j := range k {
		if s[j] > svdRankTol(s[0], m, n) {
			for i := range n {
				v.Set(i, j, v.At(i, j)/s[j])
			}
		} else {
			for i := range n {
				v.Set(i, j, 0)
			}
		}
	}
	return &SVD{U: u, S: s, V: v}
}

func svdRankTol(smax float64, m, n int) float64 {
	dim := m
	if n > dim {
		dim = n
	}
	return smax * float64(dim) * 1e-14
}

// symEigAuto picks the eigensolver by size: Jacobi for small matrices
// (most accurate), tridiagonal QL for larger ones (much faster).
func symEigAuto(a *Matrix) *Eigen {
	if a.Rows() <= 64 {
		return SymEig(a)
	}
	return SymEigTridiag(a)
}

// TruncatedSVD computes the k leading singular triplets of a using
// subspace iteration on the smaller Gram operator. Suitable for large
// rectangular matrices where only a low-rank factor is needed (LSI,
// HOSVD initialization, HOOI sweeps).
func TruncatedSVD(a *Matrix, k int, opts SubspaceOptions) *SVD {
	m, n := a.Dims()
	minDim := m
	if n < minDim {
		minDim = n
	}
	if k <= 0 || k > minDim {
		panic(fmt.Sprintf("mat: TruncatedSVD k=%d out of range for %d×%d", k, m, n))
	}
	if m <= n {
		// Left side is smaller: iterate on AAᵀ.
		eig := SubspaceIteration(&GramOperator{W: a}, k, opts)
		s := make([]float64, k)
		u := eig.Vectors
		for j := range k {
			ev := eig.Values[j]
			if ev < 0 {
				ev = 0
			}
			s[j] = math.Sqrt(ev)
		}
		v := tmulW(a, u, opts.Workers)
		for j := range k {
			if s[j] > svdRankTol(s[0], m, n) {
				for i := range n {
					v.Set(i, j, v.At(i, j)/s[j])
				}
			}
		}
		return &SVD{U: u, S: s, V: v}
	}
	// Right side is smaller: iterate on AᵀA.
	eig := SubspaceIteration(&gramTOperator{w: a}, k, opts)
	s := make([]float64, k)
	v := eig.Vectors
	for j := range k {
		ev := eig.Values[j]
		if ev < 0 {
			ev = 0
		}
		s[j] = math.Sqrt(ev)
	}
	u := mulW(a, v, opts.Workers)
	for j := range k {
		if s[j] > svdRankTol(s[0], m, n) {
			for i := range m {
				u.Set(i, j, u.At(i, j)/s[j])
			}
		}
	}
	return &SVD{U: u, S: s, V: v}
}

// SymMulT returns A·Aᵀ computing only the upper triangle and mirroring,
// half the work of MulT for this symmetric product. Large products run
// parallel with interleaved rows to balance the triangular workload.
func SymMulT(a *Matrix) *Matrix { return symMulTW(a, 0) }

// symMulTW is SymMulT with an explicit worker bound.
// Every element is the Dot of two rows of a, whichever triangle computed
// it, so the result is bit-identical for every worker count.
func symMulTW(a *Matrix, workers int) *Matrix {
	var p panels
	p.packRows(a)
	return gramW(rowsOf(a), &p, workers)
}

// symTMulW returns aᵀ·a as symMulTW(aᵀ) does, reading the columns of a
// in place of the rows of a transpose.
func symTMulW(a *Matrix, workers int) *Matrix {
	var p panels
	p.packCols(a)
	return gramW(colsOf(a), &p, workers)
}

// gramW returns the Gram matrix of the rows of a, packed as p.
func gramW(a lhs, p *panels, workers int) *Matrix {
	m := a.rows
	g := New(m, m)
	tiledUpperInto(nativeLeaf, g, a, p, workers, false)
	// Mirror the lower triangle.
	for i := range m {
		for j := range i {
			g.data[i*m+j] = g.data[j*m+i]
		}
	}
	return g
}

// LeftSVD computes only the k leading left singular vectors and singular
// values of a — the piece HOOI sweeps need. For matrices whose smaller
// side is moderate it eigendecomposes the explicit Gram matrix (never
// recovering the right singular vectors); otherwise it falls back to
// subspace iteration.
func LeftSVD(a *Matrix, k int, opts SubspaceOptions) *SVD {
	m, n := a.Dims()
	minDim := m
	if n < minDim {
		minDim = n
	}
	if k <= 0 || k > minDim {
		panic(fmt.Sprintf("mat: LeftSVD k=%d out of range for %d×%d", k, m, n))
	}
	const gramLimit = 1600
	switch {
	case m <= n && m <= gramLimit:
		// Eigendecompose AAᵀ (m×m): eigenvectors are exactly U. Full
		// decomposition when most of the spectrum is wanted, top-k
		// subspace iteration on the explicit Gram otherwise.
		eig := gramEig(symMulTW(a, opts.Workers), k, opts)
		s := make([]float64, k)
		u := New(m, k)
		for j := range k {
			ev := eig.Values[j]
			if ev < 0 {
				ev = 0
			}
			s[j] = math.Sqrt(ev)
			u.SetCol(j, eig.Vectors.Col(j))
		}
		return &SVD{U: u, S: s}
	case n < m && n <= gramLimit:
		// Eigendecompose AᵀA (n×n), recover only the k needed U columns.
		eig := gramEig(symTMulW(a, opts.Workers), k, opts)
		s := make([]float64, k)
		vk := New(n, k)
		for j := range k {
			ev := eig.Values[j]
			if ev < 0 {
				ev = 0
			}
			s[j] = math.Sqrt(ev)
			vk.SetCol(j, eig.Vectors.Col(j))
		}
		u := mulW(a, vk, opts.Workers)
		for j := range k {
			if s[j] > svdRankTol(s[0], m, n) {
				for i := range m {
					u.Set(i, j, u.At(i, j)/s[j])
				}
			} else {
				for i := range m {
					u.Set(i, j, 0)
				}
			}
		}
		return &SVD{U: u, S: s}
	default:
		t := TruncatedSVD(a, k, opts)
		return &SVD{U: t.U, S: t.S}
	}
}

// gramEig extracts the k leading eigenpairs of a symmetric PSD Gram
// matrix, choosing between a full dense decomposition (small matrices or
// nearly-full spectra) and subspace iteration.
func gramEig(g *Matrix, k int, opts SubspaceOptions) *Eigen {
	n := g.Rows()
	if n <= 96 || k*3 >= n {
		return symEigAuto(g)
	}
	return SubspaceIteration(&MatrixOperator{M: g}, k, opts)
}

// gramTOperator represents WᵀW as an operator.
type gramTOperator struct {
	w     *Matrix
	qp    panels  // the block's columns, packed
	t, zt *Matrix // W·q and (Wᵀ·W·q)ᵀ
}

func (o *gramTOperator) Dim() int { return o.w.Cols() }

// ApplyBlock computes z = Wᵀ·(W·q).
func (o *gramTOperator) ApplyBlock(q, z *Matrix, workers int) {
	o.qp.packCols(q)
	t := scratch(&o.t, o.w.rows, q.cols)
	tiledInto(nativeLeaf, t, rowsOf(o.w), &o.qp, workers, false)
	zt := scratch(&o.zt, q.cols, o.w.cols)
	tmulInto(zt, t, o.w, workers)
	zt.transposeInto(z)
}

// Reconstruct returns U·diag(S)·Vᵀ, useful in tests.
func (s *SVD) Reconstruct() *Matrix {
	k := len(s.S)
	us := s.U.Clone()
	for j := range k {
		for i := range us.Rows() {
			us.Set(i, j, us.At(i, j)*s.S[j])
		}
	}
	return MulT(us, s.V)
}
