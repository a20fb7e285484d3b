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
	var ws Workspace
	return ws.truncatedSVD(a, k, opts)
}

// truncatedSVD is TruncatedSVD with the iteration's temporaries in ws.
func (ws *Workspace) truncatedSVD(a *Matrix, k int, opts SubspaceOptions) *SVD {
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
		ws.gramOp.W = a
		eig := ws.sub.iterate(&ws.gramOp, k, opts)
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
	ws.gramTOp.w = a
	eig := ws.sub.iterate(&ws.gramTOp, k, opts)
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
	return gramInto(New(a.rows, a.rows), rowsOf(a), &p, workers)
}

// gramInto overwrites g with the Gram matrix of the rows of a, packed as
// p, and returns it.
func gramInto(g *Matrix, a lhs, p *panels, workers int) *Matrix {
	m := a.rows
	tiledUpperInto(nativeLeaf, g, a, p, workers, false)
	// Mirror the lower triangle.
	for i := range m {
		for j := range i {
			g.data[i*m+j] = g.data[j*m+i]
		}
	}
	return g
}

// Workspace keeps the temporaries of a run of leading-left SVDs and
// subspace iterations, such as the sweeps of a Tucker decomposition
// make: the explicit Gram matrix and the packed operands of the Gram and
// recovery products, the operators, and the blocks of subspace
// iteration with their orthonormalization scratch. Each is allocated at
// the largest shape asked for and reused after, so a decomposition's
// 36 leading-left SVDs allocate them about once. The zero value is ready
// to use. A Workspace is not safe for concurrent use, and nothing its
// methods return aliases it.
type Workspace struct {
	gram    *Matrix
	p       panels
	op      MatrixOperator
	gramOp  GramOperator
	gramTOp gramTOperator
	sub     subspace
}

// SubspaceIteration is the package-level SubspaceIteration with its
// temporaries in ws.
func (ws *Workspace) SubspaceIteration(op Operator, k int, opts SubspaceOptions) *Eigen {
	return ws.sub.iterate(op, k, opts)
}

// LeftSVD computes only the k leading left singular vectors and singular
// values of a — the piece HOOI sweeps need. For matrices whose smaller
// side is moderate it eigendecomposes the explicit Gram matrix (never
// recovering the right singular vectors); otherwise it falls back to
// subspace iteration.
func LeftSVD(a *Matrix, k int, opts SubspaceOptions) *SVD {
	var ws Workspace
	return ws.LeftSVD(a, k, opts)
}

// LeftSVD is the package-level LeftSVD with its temporaries in ws.
func (ws *Workspace) LeftSVD(a *Matrix, k int, opts SubspaceOptions) *SVD {
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
		ws.p.packRows(a)
		g := gramInto(scratch(&ws.gram, m, m), rowsOf(a), &ws.p, opts.Workers)
		eig := ws.gramEig(g, k, opts)
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
		ws.p.packCols(a)
		g := gramInto(scratch(&ws.gram, n, n), colsOf(a), &ws.p, opts.Workers)
		eig := ws.gramEig(g, k, opts)
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
		// U = A·Vₖ, with the columns of Vₖ packed as the right operand.
		u := New(m, k)
		ws.p.packCols(vk)
		tiledInto(nativeLeaf, u, rowsOf(a), &ws.p, opts.Workers, true)
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
		t := ws.truncatedSVD(a, k, opts)
		return &SVD{U: t.U, S: t.S}
	}
}

// gramEig extracts the k leading eigenpairs of a symmetric PSD Gram
// matrix, choosing between a full dense decomposition (small matrices or
// nearly-full spectra) and subspace iteration.
func (ws *Workspace) gramEig(g *Matrix, k int, opts SubspaceOptions) *Eigen {
	n := g.Rows()
	if n <= 96 || k*3 >= n {
		return symEigAuto(g)
	}
	ws.op.M = g
	return ws.sub.iterate(&ws.op, k, opts)
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
