package mat

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// dot4, dot4Nonzero, dotNonzero and dotRows are the four-sums-per-pass
// loops the dense products ran on before the tiled kernel replaced them.
// TestTiledProductsMatchReference holds both leaves to their bits.

// dot4 returns the inner products of a with b0, b1, b2 and b3. Each sum
// is accumulated left to right exactly as Dot accumulates it, so every
// result has Dot's bits.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// dot4Nonzero is dot4 without the terms in which a is zero.
func dot4Nonzero(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		if v == 0 {
			continue
		}
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// dotNonzero is Dot without the terms in which x is zero.
func dotNonzero(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		if v == 0 {
			continue
		}
		s += v * y[i]
	}
	return s
}

// dotRows sets dst[j] to the inner product of a with row j of b for every
// j in [lo, hi), four rows of b per pass over a: Dot's sum, or with
// skipZero dotNonzero's.
func dotRows(dst, a []float64, b *Matrix, lo, hi int, skipZero bool) {
	skipZero = skipZero && slices.Contains(a, 0)
	n := b.cols
	j := lo
	for ; j+4 <= hi; j += 4 {
		rows := b.data[j*n : (j+4)*n]
		b0, b1, b2, b3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
		if skipZero {
			dst[j], dst[j+1], dst[j+2], dst[j+3] = dot4Nonzero(a, b0, b1, b2, b3)
		} else {
			dst[j], dst[j+1], dst[j+2], dst[j+3] = dot4(a, b0, b1, b2, b3)
		}
	}
	for ; j < hi; j++ {
		if skipZero {
			dst[j] = dotNonzero(a, b.data[j*n:(j+1)*n])
		} else {
			dst[j] = Dot(a, b.data[j*n:(j+1)*n])
		}
	}
}

// This file is the decompose path as it stood before its kernels were
// rewritten, kept verbatim (renamed with a ref prefix, and without the
// per-column goroutine fan-out, which computed the same columns) as the
// reference the property tests in kernels_test.go compare against bit
// for bit: one Dot per Gram element, i-outer TMul, ikj Mul, At-based
// Cholesky-QR, Jacobi and tridiagonal eigensolvers through At/Set, and a
// subspace iteration that applies its operator one column at a time.

func refMul(a, b *Matrix, workers int) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.cols)
	// ikj loop order: stream through rows of b for cache friendliness.
	parallelForW(a.rows, a.rows*a.cols*b.cols, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.data[i*a.cols : (i+1)*a.cols]
			crow := c.data[i*c.cols : (i+1)*c.cols]
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.data[k*b.cols : (k+1)*b.cols]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
	return c
}

func refMulT(a, b *Matrix, workers int) *Matrix {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulT shape mismatch %d×%d · (%d×%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.rows)
	parallelForW(a.rows, a.rows*a.cols*b.rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.data[i*a.cols : (i+1)*a.cols]
			crow := c.data[i*c.cols : (i+1)*c.cols]
			for j := range b.rows {
				brow := b.data[j*b.cols : (j+1)*b.cols]
				crow[j] = Dot(arow, brow)
			}
		}
	})
	return c
}

func refTMul(a, b *Matrix, workers int) *Matrix {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: TMul shape mismatch (%d×%d)ᵀ · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.cols, b.cols)
	parallelForW(a.cols, a.rows*a.cols*b.cols, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := c.data[i*c.cols : (i+1)*c.cols]
			for k := range a.rows {
				av := a.data[k*a.cols+i]
				if av == 0 {
					continue
				}
				brow := b.data[k*b.cols : (k+1)*b.cols]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
	return c
}

func refSymMulT(a *Matrix, maxWorkers int) *Matrix {
	m, n := a.Dims()
	g := New(m, m)
	workers := 1
	if m*m*n/2 >= parallelThreshold {
		workers = Workers(maxWorkers)
		if workers > m {
			workers = m
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stride rows by worker id: row i costs (m−i) dot products,
			// so striding interleaves cheap and expensive rows.
			for i := w; i < m; i += workers {
				ri := a.Row(i)
				grow := g.Row(i)
				for j := i; j < m; j++ {
					grow[j] = Dot(ri, a.Row(j))
				}
			}
		}(w)
	}
	wg.Wait()
	// Mirror the lower triangle.
	for i := range m {
		for j := range i {
			g.data[i*m+j] = g.data[j*m+i]
		}
	}
	return g
}

func refOrthonormalize(a *Matrix, workers int) *Matrix {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: Orthonormalize requires rows ≥ cols, got %d×%d", m, n))
	}
	if m*n*n >= 1<<18 {
		if refCholQR(a, workers) && refCholQR(a, workers) {
			return a
		}
	}
	cols := make([][]float64, n)
	for j := range n {
		cols[j] = a.Col(j)
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

func refCholQR(a *Matrix, workers int) bool {
	m, n := a.Dims()
	g := refTMul(a, a, workers)
	// In-place Cholesky G = RᵀR (upper triangular R stored in g).
	for j := range n {
		d := g.At(j, j)
		for k := range j {
			d -= g.At(k, j) * g.At(k, j)
		}
		if d <= 1e-12*g.At(j, j) || d <= 0 {
			return false
		}
		rjj := math.Sqrt(d)
		g.Set(j, j, rjj)
		for c := j + 1; c < n; c++ {
			v := g.At(j, c)
			for k := range j {
				v -= g.At(k, j) * g.At(k, c)
			}
			g.Set(j, c, v/rjj)
		}
	}
	// A ← A·R⁻¹ by forward substitution per row, parallel across rows.
	parallelForW(m, m*n*n/2, workers, func(lo, hi int) {
		x := make([]float64, n)
		for i := lo; i < hi; i++ {
			row := a.Row(i)
			for j := range n {
				v := row[j]
				for k := range j {
					v -= x[k] * g.At(k, j)
				}
				x[j] = v / g.At(j, j)
			}
			copy(row, x)
		}
	})
	return true
}

func refSymEig(a *Matrix) *Eigen {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("mat: refSymEig requires square matrix, got %d×%d", n, c))
	}
	w := a.Clone()
	v := Identity(n)

	offDiag := func() float64 {
		var s float64
		for i := range n {
			for j := i + 1; j < n; j++ {
				s += w.At(i, j) * w.At(i, j)
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
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				// Apply the rotation J(p,q,θ) on both sides of w.
				for k := range n {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, cth*akp-sth*akq)
					w.Set(k, q, sth*akp+cth*akq)
				}
				for k := range n {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, cth*apk-sth*aqk)
					w.Set(q, k, sth*apk+cth*aqk)
				}
				// Accumulate eigenvectors.
				for k := range n {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, cth*vkp-sth*vkq)
					v.Set(k, q, sth*vkp+cth*vkq)
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := range n {
		vals[i] = w.At(i, i)
	}
	return refSortEigen(vals, v)
}

func refSortEigen(vals []float64, vecs *Matrix) *Eigen {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	sv := make([]float64, n)
	sm := New(vecs.Rows(), n)
	for k, i := range idx {
		sv[k] = vals[i]
		sm.SetCol(k, vecs.Col(i))
	}
	return &Eigen{Values: sv, Vectors: sm}
}

func refSymEigAuto(a *Matrix) *Eigen {
	if a.Rows() <= 64 {
		return refSymEig(a)
	}
	return refSymEigTridiag(a)
}

func refSymEigTridiag(a *Matrix) *Eigen {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("mat: refSymEigTridiag requires square matrix, got %d×%d", n, c))
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: New(0, 0)}
	}
	// z holds the accumulating transformation; d and e the diagonal and
	// off-diagonal of the tridiagonal form.
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	refTql2(z, d, e)
	return refSortEigen(d, z)
}

func refTred2(z *Matrix, d, e []float64) {
	n := z.Rows()
	for j := range n {
		d[j] = z.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := range i {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := range i {
				d[j] = z.At(i-1, j)
				z.Set(i, j, 0)
				z.Set(j, i, 0)
			}
		} else {
			for k := range i {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := range i {
				e[j] = 0
			}
			for j := range i {
				f = d[j]
				z.Set(j, i, f)
				g = e[j] + z.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += z.At(k, j) * d[k]
					e[k] += z.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := range i {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := range i {
				e[j] -= hh * d[j]
			}
			for j := range i {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					z.Set(k, j, z.At(k, j)-(f*e[k]+g*d[k]))
				}
				d[j] = z.At(i-1, j)
				z.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		z.Set(n-1, i, z.At(i, i))
		z.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = z.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += z.At(k, i+1) * z.At(k, j)
				}
				for k := 0; k <= i; k++ {
					z.Set(k, j, z.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			z.Set(k, i+1, 0)
		}
	}
	for j := range n {
		d[j] = z.At(n-1, j)
		z.Set(n-1, j, 0)
	}
	z.Set(n-1, n-1, 1)
	e[0] = 0
}

func refTql2(z *Matrix, d, e []float64) {
	n := z.Rows()
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Nextafter(1, 2) - 1
	for l := range n {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 64 {
					panic("mat: refTql2 failed to converge")
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					for k := range n {
						h = z.At(k, i+1)
						z.Set(k, i+1, s*z.At(k, i)+c*h)
						z.Set(k, i, c*z.At(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
}

func refSubspaceIteration(op refOperator, k int, opts SubspaceOptions) *Eigen {
	n := op.Dim()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("mat: refSubspaceIteration k=%d out of range for n=%d", k, n))
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

	rng := newSplitMix(opts.Seed ^ 0x9e3779b97f4a7c15)
	q := New(n, b)
	for i := range n {
		for j := range b {
			q.Set(i, j, rng.normFloat())
		}
	}
	refOrthonormalize(q, opts.Workers)

	z := New(n, b)
	xbuf := make([]float64, n)
	ybuf := make([]float64, n)

	applyBlock := func() {
		for j := range b {
			for i := range n {
				xbuf[i] = q.At(i, j)
			}
			op.Apply(xbuf, ybuf)
			z.SetCol(j, ybuf)
		}
	}
	rayleighRitz := func() *Eigen {
		// H = QᵀZ is symmetric since A is; symmetrize against rounding.
		h := refTMul(q, z, opts.Workers)
		for i := range b {
			for j := i + 1; j < b; j++ {
				v := 0.5 * (h.At(i, j) + h.At(j, i))
				h.Set(i, j, v)
				h.Set(j, i, v)
			}
		}
		// Size-aware eigensolver: Jacobi for small blocks (identical to
		// the historical behavior there), tridiagonal QL beyond — the
		// cyclic Jacobi sweeps on a 250-wide Ritz block were the dominant
		// serial cost of large decompositions.
		return refSymEigAuto(h)
	}

	var ritz *Eigen
	var vecs, avecs *Matrix
	// Between Rayleigh–Ritz extractions (which cost a dense b×b
	// eigendecomposition each) run plain power-orthonormalize steps; the
	// Ritz step then both accelerates and tests convergence.
	const powerSteps = 2
	for applied := 0; applied < maxIter; {
		for p := 0; p < powerSteps && applied < maxIter-1; p++ {
			applyBlock()
			applied++
			q, z = z, q
			refOrthonormalize(q, opts.Workers)
		}
		applyBlock()
		applied++
		ritz = rayleighRitz()
		// Ritz vectors in original coordinates and their images under A.
		vecs = refMul(q, ritz.Vectors, opts.Workers)
		avecs = refMul(z, ritz.Vectors, opts.Workers)

		// Residual-based convergence on the top-k pairs:
		// ||A·v − λ·v|| ≤ tol·|λmax| for every wanted pair.
		maxv := math.Abs(ritz.Values[0])
		if maxv == 0 {
			maxv = 1
		}
		var worst float64
		for j := range k {
			var res float64
			for i := range n {
				r := avecs.At(i, j) - ritz.Values[j]*vecs.At(i, j)
				res += r * r
			}
			worst = math.Max(worst, math.Sqrt(res))
		}
		if worst <= tol*maxv {
			break
		}
		// Advance the block: Q ← orth(A·Q rotated onto Ritz directions).
		q = refOrthonormalize(avecs.Clone(), opts.Workers)
	}

	out := &Eigen{Values: make([]float64, k), Vectors: New(n, k)}
	copy(out.Values, ritz.Values[:k])
	for j := range k {
		out.Vectors.SetCol(j, vecs.Col(j))
	}
	return out
}

// refOperator is the operator interface SubspaceIteration used to take:
// one column in, one column out.
type refOperator interface {
	Dim() int
	Apply(x, y []float64)
}

type refMatrixOperator struct{ M *Matrix }

func (o refMatrixOperator) Dim() int { return o.M.Rows() }

func (o refMatrixOperator) Apply(x, y []float64) {
	m := o.M
	for i := range m.rows {
		y[i] = Dot(m.Row(i), x)
	}
}

type refGramOperator struct{ W *Matrix }

func (o refGramOperator) Dim() int { return o.W.Rows() }

func (o refGramOperator) Apply(x, y []float64) {
	t := o.W.TMulVec(x)
	r := o.W.MulVec(t)
	copy(y, r)
}

type refGramTOperator struct{ w *Matrix }

func (o refGramTOperator) Dim() int { return o.w.Cols() }

func (o refGramTOperator) Apply(x, y []float64) {
	t := o.w.MulVec(x)
	r := o.w.TMulVec(t)
	copy(y, r)
}

// refSparseRows, refAccumOuter4 (with refAccumOuter) and refSubstitute
// are the loops the sparse row leaves and the substitution leaf
// replaced: the tensor package's compressed-row multiply and four-entry
// projected-unfolding update, and Cholesky-QR's four-row forward
// substitution. leaves_test.go holds both leaves of each to their bits.

// refSparseRows is grouped.multiply's row loop over the rows of starts:
// row r of out becomes 0 + v₀·in[s₀] + v₁·in[s₁] + … over its entries.
func refSparseRows(out []float64, outStride, w int, starts []int, src []int32, val []float64, in []float64, inStride int) {
	row := func(r int) []float64 { return in[r*inStride:][:w] }
	for r := 0; r+1 < len(starts); r++ {
		dst := out[r*outStride:][:w]
		clear(dst)
		n, end := starts[r], starts[r+1]
		// Two entries per pass over dst; d + v₀x₀ + v₁x₁ is evaluated
		// left to right, the order two passes would add in.
		for ; n+2 <= end; n += 2 {
			v0, v1 := val[n], val[n+1]
			x0, x1 := row(int(src[n]))[:len(dst)], row(int(src[n+1]))[:len(dst)]
			for j, d := range dst {
				dst[j] = d + v0*x0[j] + v1*x1[j]
			}
		}
		if n < end {
			v, x := val[n], row(int(src[n]))[:len(dst)]
			for j := range dst {
				dst[j] += v * x[j]
			}
		}
	}
}

// refAccumOuter adds v · (ra ⊗ rb) to the flattened row dst, where
// dst[a*len(rb)+b] += v·ra[a]·rb[b].
func refAccumOuter(dst []float64, v float64, ra, rb []float64) {
	for a, va := range ra {
		s := v * va
		if s == 0 {
			continue
		}
		seg := dst[a*len(rb) : (a+1)*len(rb)]
		for b, vb := range rb {
			seg[b] += s * vb
		}
	}
}

// refAccumOuter4 adds four terms to dst in one pass, leaving in every
// element the bits four refAccumOuter calls in the same order would: the
// sum d + s₀b₀ + s₁b₁ + s₂b₂ + s₃b₃ is evaluated left to right, and a
// segment in which some scale sᵢ is zero — which refAccumOuter skips —
// is handed back to it term by term.
func refAccumOuter4(dst []float64, t [4]OuterTerm) {
	nb := len(t[0].B)
	rb0, rb1, rb2, rb3 := t[0].B, t[1].B[:nb], t[2].B[:nb], t[3].B[:nb]
	for a := range t[0].A {
		s0, s1, s2, s3 := t[0].V*t[0].A[a], t[1].V*t[1].A[a], t[2].V*t[2].A[a], t[3].V*t[3].A[a]
		seg := dst[a*nb : (a+1)*nb]
		if s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
			for _, x := range t {
				refAccumOuter(seg, x.V, x.A[a:a+1], x.B)
			}
			continue
		}
		for b, d := range seg {
			seg[b] = d + s0*rb0[b] + s1*rb1[b] + s2*rb2[b] + s3*rb3[b]
		}
	}
}

// refSubstitute is cholQR's substitution: A ← A·R⁻¹ by forward
// substitution per row, in place, with rt the n×n lower-triangular Rᵀ,
// parallel across rows; four rows share each pass over Rᵀ.
func refSubstitute(a *Matrix, rt []float64, workers int) {
	m, n := a.Dims()
	parallelForW(m, m*n*n/2, workers, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			rows := a.data[i*n : (i+4)*n]
			x0, x1, x2, x3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
			for j := range n {
				rj := rt[j*n : j*n+j+1]
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
				rj := rt[j*n : j*n+j+1]
				v := x[j]
				for k, r := range rj[:j] {
					v -= x[k] * r
				}
				x[j] = v / rj[j]
			}
		}
	})
}
