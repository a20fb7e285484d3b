package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q·R with Q m×n (thin,
// orthonormal columns) and R n×n upper triangular, for m ≥ n.
type QR struct {
	Q *Matrix
	R *Matrix
}

// QRFactor computes the thin QR factorization of a (rows ≥ cols) using
// Householder reflections.
func QRFactor(a *Matrix) *QR {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: QRFactor requires rows ≥ cols, got %d×%d", m, n))
	}
	r := a.Clone()
	// vs[k] stores the Householder vector for column k.
	vs := make([][]float64, n)
	for k := range n {
		// Build the Householder vector from column k below the diagonal.
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		alpha := Norm2(v)
		if v[0] > 0 {
			alpha = -alpha
		}
		if alpha == 0 {
			vs[k] = nil
			continue
		}
		v[0] -= alpha
		Normalize(v)
		vs[k] = v
		// Apply reflection H = I − 2vvᵀ to the trailing block of R.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			dot *= 2
			for i := k; i < m; i++ {
				r.Add(i, j, -dot*v[i-k])
			}
		}
	}
	// Accumulate thin Q by applying the reflections to the first n columns
	// of the identity, in reverse order.
	q := New(m, n)
	for j := range n {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		v := vs[k]
		if v == nil {
			continue
		}
		for j := range n {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			dot *= 2
			for i := k; i < m; i++ {
				q.Add(i, j, -dot*v[i-k])
			}
		}
	}
	// Zero the strictly-lower part of R and truncate to n×n.
	rr := New(n, n)
	for i := range n {
		for j := i; j < n; j++ {
			rr.Set(i, j, r.At(i, j))
		}
	}
	return &QR{Q: q, R: rr}
}

// Orthonormalize replaces the columns of a with an orthonormal basis of
// their span. For well-conditioned large blocks it uses two rounds of
// Cholesky-QR (fully parallel: one Gram product and one triangular solve
// per round); on rank-deficiency it falls back to modified Gram–Schmidt
// with reorthogonalization, replacing null columns by unit coordinate
// vectors orthogonal to the previous columns so the result is always a
// complete orthonormal set. It modifies a in place and returns it.
func Orthonormalize(a *Matrix) *Matrix { return orthonormalizeW(a, 0) }

// orthonormalizeW is Orthonormalize with an explicit worker bound for the
// Cholesky-QR rounds (0 = GOMAXPROCS, 1 = serial). The factorization is
// bit-identical for every worker count: the Gram product and triangular
// solves assign disjoint outputs with unchanged per-element order, and
// the Gram–Schmidt fallback is serial.
func orthonormalizeW(a *Matrix, workers int) *Matrix {
	var s orthoScratch
	return s.orthonormalize(a, workers)
}

// cholQRMinWork is the m·n² from which orthonormalization tries
// Cholesky-QR before Gram–Schmidt. The two produce different (equally
// orthonormal) bases, so unlike parallelThreshold this value is part of
// what the pinned factor hashes pin.
const cholQRMinWork = 1 << 18

// orthoScratch holds the temporaries of orthonormalizeW — the packed
// columns, the Gram matrix and the Cholesky factor of Cholesky-QR, and
// the transposed block Gram–Schmidt works on — so a caller that
// orthonormalizes same-shaped blocks in a loop allocates them once. The
// zero value is ready to use.
type orthoScratch struct {
	g, rt, cols *Matrix
	p           panels
}

func (s *orthoScratch) orthonormalize(a *Matrix, workers int) *Matrix {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: Orthonormalize requires rows ≥ cols, got %d×%d", m, n))
	}
	if m*n*n >= cholQRMinWork {
		if s.cholQR(a, workers) && s.cholQR(a, workers) {
			return a
		}
	}
	// Row j of at is column j of a.
	at := scratch(&s.cols, n, m)
	a.transposeInto(at)
	cols := make([][]float64, n)
	for j := range n {
		cols[j] = at.Row(j)
	}
	for j := range n {
		// Two passes of projection for numerical robustness.
		for range 2 {
			for k := range j {
				d := Dot(cols[k], cols[j])
				AXPY(-d, cols[k], cols[j])
			}
		}
		if Norm2(cols[j]) < 1e-12 {
			// Rank deficiency: substitute a coordinate vector not in the
			// span of the previous columns.
			replaced := false
			for e := 0; e < m && !replaced; e++ {
				cand := make([]float64, m)
				cand[e] = 1
				for k := range j {
					d := Dot(cols[k], cand)
					AXPY(-d, cols[k], cand)
				}
				if Norm2(cand) > 1e-6 {
					cols[j] = cand
					replaced = true
				}
			}
			if !replaced {
				panic("mat: Orthonormalize could not complete basis")
			}
		}
		Normalize(cols[j])
	}
	for j := range n {
		a.SetCol(j, cols[j])
	}
	return a
}

// cholQR performs one round of Cholesky-QR in place: G = AᵀA = RᵀR,
// A ← A·R⁻¹. Returns false (leaving a untouched) when the Gram matrix is
// not safely positive definite; callers fall back to Gram–Schmidt.
func (s *orthoScratch) cholQR(a *Matrix, workers int) bool {
	m, n := a.Dims()
	// Only the upper triangle of G is read below. Its elements are inner
	// products of columns of a.
	s.p.packCols(a)
	g := scratch(&s.g, n, n)
	tiledUpperInto(nativeLeaf, g, colsOf(a), &s.p, workers, true)
	// Cholesky G = RᵀR, row j of R at a time, written as column j of the
	// lower-triangular Rᵀ: both inner products then run along rows of Rᵀ
	// instead of down columns of R.
	rt := scratch(&s.rt, n, n)
	for j := range n {
		rj := rt.data[j*n : j*n+j]
		gjj := g.data[j*n+j]
		d := gjj
		for _, r := range rj {
			d -= r * r
		}
		if d <= 1e-12*gjj || d <= 0 {
			return false
		}
		rjj := math.Sqrt(d)
		rt.data[j*n+j] = rjj
		for c := j + 1; c < n; c++ {
			rc := rt.data[c*n : c*n+j]
			v := g.data[j*n+c]
			for k, r := range rj {
				v -= r * rc[k]
			}
			rt.data[c*n+j] = v / rjj
		}
	}
	// A ← A·R⁻¹ by forward substitution per row, in place — entry j of
	// the solution needs entry j of the row and the solution before j —
	// and parallel across rows. Four rows share each pass over Rᵀ: each
	// entry is a chain of dependent subtractions, and four independent
	// chains keep the subtractor busy while one waits.
	parallelForW(m, m*n*n/2, workers, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			rows := a.data[i*n : (i+4)*n]
			x0, x1, x2, x3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
			for j := range n {
				rj := rt.data[j*n : j*n+j+1]
				v0, v1, v2, v3 := x0[j], x1[j], x2[j], x3[j]
				for k, r := range rj[:j] {
					v0 -= x0[k] * r
					v1 -= x1[k] * r
					v2 -= x2[k] * r
					v3 -= x3[k] * r
				}
				rjj := rj[j]
				x0[j], x1[j], x2[j], x3[j] = v0/rjj, v1/rjj, v2/rjj, v3/rjj
			}
		}
		for ; i < hi; i++ {
			x := a.data[i*n : (i+1)*n]
			for j := range n {
				rj := rt.data[j*n : j*n+j+1]
				v := x[j]
				for k, r := range rj[:j] {
					v -= x[k] * r
				}
				x[j] = v / rj[j]
			}
		}
	})
	return true
}

// IsOrthonormal reports whether the columns of a are orthonormal within tol.
func IsOrthonormal(a *Matrix, tol float64) bool {
	g := TMul(a, a)
	n := a.Cols()
	for i := range n {
		for j := range n {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}
