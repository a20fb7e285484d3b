package mat

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds a symmetric eigendecomposition A = V·diag(Values)·Vᵀ with
// eigenvalues sorted in descending order and eigenvectors as the columns
// of Vectors.
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// SymEig computes the full eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. It is exact (to rounding) and robust,
// with O(n³) cost per sweep; intended for matrices up to a few hundred
// rows. Larger problems should use SubspaceIteration for leading pairs.
func SymEig(a *Matrix) *Eigen {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("mat: SymEig requires square matrix, got %d×%d", n, c))
	}
	w := a.Clone()
	v := Identity(n)
	wd, vd := w.data, v.data

	offDiag := func() float64 {
		var s float64
		for i := range n {
			for _, x := range wd[i*n+i+1 : (i+1)*n] {
				s += x * x
			}
		}
		return math.Sqrt(2 * s)
	}

	scale := w.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	const maxSweeps = 64
	for range maxSweeps {
		if offDiag() <= 1e-14*scale*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := wd[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := wd[p*n+p], wd[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				// Apply the rotation J(p,q,θ) on both sides of w: columns
				// p and q first, then rows p and q.
				for kp, kq := p, q; kp < n*n; kp, kq = kp+n, kq+n {
					akp, akq := wd[kp], wd[kq]
					wd[kp] = cth*akp - sth*akq
					wd[kq] = sth*akp + cth*akq
				}
				wp, wq := wd[p*n:(p+1)*n], wd[q*n:(q+1)*n]
				for k, apk := range wp {
					aqk := wq[k]
					wp[k] = cth*apk - sth*aqk
					wq[k] = sth*apk + cth*aqk
				}
				// Accumulate eigenvectors.
				for kp, kq := p, q; kp < n*n; kp, kq = kp+n, kq+n {
					vkp, vkq := vd[kp], vd[kq]
					vd[kp] = cth*vkp - sth*vkq
					vd[kq] = sth*vkp + cth*vkq
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := range n {
		vals[i] = wd[i*n+i]
	}
	return sortEigen(vals, v)
}

// sortEigen orders eigenpairs by descending eigenvalue.
func sortEigen(vals []float64, vecs *Matrix) *Eigen {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	sv := make([]float64, n)
	for k, i := range idx {
		sv[k] = vals[i]
	}
	return &Eigen{Values: sv, Vectors: vecs.selectCols(idx)}
}

// Operator is a symmetric linear operator A, used by SubspaceIteration so
// that large or implicitly-defined matrices (for example Gram products
// W·Wᵀ) never need to be materialized. It is applied to a whole block of
// vectors at a time: a block apply shares every pass over A among all the
// block's columns, where a column-at-a-time apply repeats it.
type Operator interface {
	// Dim returns the dimension n of the operator.
	Dim() int
	// ApplyBlock overwrites z with A·q for the n×b blocks q and z, on at
	// most workers goroutines (0 = one per logical CPU, 1 = serial).
	// Column j of z must carry exactly the bits a serial product of A
	// with column j of q would: implementations split the work across
	// disjoint outputs and never reorder a per-element summation, which
	// is what makes the eigenpairs independent of the worker count. An
	// operator may keep scratch between calls, so one operator is not
	// safe for concurrent ApplyBlock calls.
	ApplyBlock(q, z *Matrix, workers int)
}

// scratch returns *m if it already has the given shape and otherwise
// replaces it with a new matrix of that shape. Operators keep their
// per-apply temporaries this way: allocated on the first block of a
// subspace iteration, reused by every later one.
func scratch(m **Matrix, rows, cols int) *Matrix {
	if *m == nil || (*m).rows != rows || (*m).cols != cols {
		*m = New(rows, cols)
	}
	return *m
}

// MatrixOperator adapts a symmetric *Matrix to the Operator interface.
type MatrixOperator struct {
	M  *Matrix
	qp panels // the block's columns, packed
}

// Dim returns the operator dimension.
func (o *MatrixOperator) Dim() int { return o.M.Rows() }

// ApplyBlock computes z = M·q: every element is the Dot of a row of M
// with a column of q, the columns packed straight from the block.
func (o *MatrixOperator) ApplyBlock(q, z *Matrix, workers int) {
	o.qp.packCols(q)
	tiledInto(nativeLeaf, z, rowsOf(o.M), &o.qp, workers, false)
}

// GramOperator represents W·Wᵀ for a rectangular W without forming the
// product.
type GramOperator struct {
	W  *Matrix
	tt *Matrix // (Wᵀ·q)ᵀ
	tp panels  // tt, packed
}

// Dim returns the number of rows of W.
func (o *GramOperator) Dim() int { return o.W.Rows() }

// ApplyBlock computes z = W·(Wᵀ·q).
func (o *GramOperator) ApplyBlock(q, z *Matrix, workers int) {
	tt := scratch(&o.tt, q.cols, o.W.cols)
	tmulInto(tt, q, o.W, workers)
	o.tp.packRows(tt)
	tiledInto(nativeLeaf, z, rowsOf(o.W), &o.tp, workers, false)
}

// SubspaceOptions configures SubspaceIteration.
type SubspaceOptions struct {
	// MaxIter bounds the number of orthogonal-iteration sweeps.
	// Zero means the default of 200.
	MaxIter int
	// Tol is the convergence threshold on the eigenpair residual
	// ||A·v − λ·v|| relative to the largest Ritz value. Zero means 1e-8.
	Tol float64
	// Seed makes the random starting block deterministic.
	Seed uint64
	// Workers bounds the pool used for block applies, Gram products and
	// QR steps. 0 means one worker per logical CPU; 1 runs serially.
	// Every worker count produces bit-identical results: parallel regions
	// assign disjoint outputs without changing per-element summation
	// order.
	Workers int
}

// SubspaceIteration computes the k algebraically largest eigenvalues and
// corresponding eigenvectors of the symmetric positive semidefinite
// operator op using blocked orthogonal iteration with Rayleigh–Ritz
// extraction. It returns eigenvalues in descending order and eigenvectors
// as matrix columns.
//
// The operator must be PSD (all uses in this codebase are Gram or
// Laplacian-affinity operators, which are PSD or have known shifts
// applied by the caller).
func SubspaceIteration(op Operator, k int, opts SubspaceOptions) *Eigen {
	n := op.Dim()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("mat: SubspaceIteration k=%d out of range for n=%d", k, n))
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-8
	}
	// Oversample the block a little to speed convergence of the trailing
	// wanted eigenpair.
	b := k + 4
	if b > n {
		b = n
	}
	workers := opts.Workers

	// Everything the iteration needs is allocated here or on the first
	// round, once: the two blocks that trade places, the Ritz matrix and
	// vectors, the packed right operands of the Rayleigh–Ritz products,
	// and the orthonormalization scratch.
	q, z := New(n, b), New(n, b)
	h := New(b, b)
	vecs, avecs := New(n, b), New(n, b)
	var zp, vp panels
	var ortho orthoScratch

	rng := newSplitMix(opts.Seed ^ 0x9e3779b97f4a7c15)
	for i := range q.data {
		q.data[i] = rng.normFloat()
	}
	ortho.orthonormalize(q, workers)

	var ritz *Eigen
	// Between Rayleigh–Ritz extractions (which cost a dense b×b
	// eigendecomposition each) run plain power-orthonormalize steps; the
	// Ritz step then both accelerates and tests convergence.
	const powerSteps = 2
	for applied := 0; applied < maxIter; {
		for p := 0; p < powerSteps && applied < maxIter-1; p++ {
			op.ApplyBlock(q, z, workers)
			applied++
			q, z = z, q
			ortho.orthonormalize(q, workers)
		}
		op.ApplyBlock(q, z, workers)
		applied++
		// H = QᵀZ is symmetric since A is; symmetrize against rounding.
		// Its elements are inner products of columns of q and z.
		zp.packCols(z)
		tiledInto(nativeLeaf, h, colsOf(q), &zp, workers, true)
		for i := range b {
			for j := i + 1; j < b; j++ {
				v := 0.5 * (h.data[i*b+j] + h.data[j*b+i])
				h.data[i*b+j] = v
				h.data[j*b+i] = v
			}
		}
		// Size-aware eigensolver: Jacobi for small blocks, tridiagonal QL
		// beyond — cyclic Jacobi sweeps on a 250-wide Ritz block would be
		// the dominant serial cost of large decompositions.
		ritz = symEigAuto(h)
		// Ritz vectors in original coordinates and their images under A.
		vp.packCols(ritz.Vectors)
		tiledInto(nativeLeaf, vecs, rowsOf(q), &vp, workers, true)
		tiledInto(nativeLeaf, avecs, rowsOf(z), &vp, workers, true)

		// Residual-based convergence on the top-k pairs:
		// ||A·v − λ·v|| ≤ tol·|λmax| for every wanted pair.
		maxv := math.Abs(ritz.Values[0])
		if maxv == 0 {
			maxv = 1
		}
		var worst float64
		for j := range k {
			lambda := ritz.Values[j]
			var res float64
			for ij := j; ij < n*b; ij += b {
				r := avecs.data[ij] - lambda*vecs.data[ij]
				res += r * r
			}
			worst = math.Max(worst, math.Sqrt(res))
		}
		if worst <= tol*maxv {
			break
		}
		// Advance the block: Q ← orth(A·Q rotated onto Ritz directions).
		copy(q.data, avecs.data)
		ortho.orthonormalize(q, workers)
	}

	return &Eigen{Values: ritz.Values[:k:k], Vectors: vecs.SubMatrix(0, n, 0, k)}
}

// splitMix is a tiny deterministic PRNG (SplitMix64) used for seeding
// iteration starting blocks without importing math/rand.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// normFloat returns an approximately standard-normal variate via the sum
// of uniforms (Irwin–Hall with 4 terms), adequate for iteration starts.
func (s *splitMix) normFloat() float64 {
	var acc float64
	for range 4 {
		acc += float64(s.next()>>11) / (1 << 53)
	}
	return (acc - 2) * math.Sqrt(3)
}
