// Package mat provides the dense linear-algebra substrate used by the
// CubeLSI reproduction: matrices, vectors, QR factorization, symmetric
// eigendecompositions (Jacobi and tridiagonal QL), thin SVD, and subspace
// iteration for leading eigenpairs of large operators.
//
// The package is self-contained (standard library only) and tuned for the
// matrix shapes that arise in Tucker decomposition and spectral clustering:
// tall-and-skinny factor matrices, small dense cores, and symmetric Gram
// matrices accessed through operator products.
//
// The products under a decomposition are order-preserving block kernels.
// Every output element is accumulated left to right, term by term, in the
// order the plain serial loop adds it — no fused multiply-add, no
// reassociation — but many independent elements are computed per pass
// over the shared operands, and an Operator is applied to a whole block
// of vectors at once (ApplyBlock). The dense products a·bᵀ and a·aᵀ run
// through one register-tiled kernel (tile.go): b is packed into panels of
// eight rows, and a leaf computes a 4×8 tile of the output per pass, each
// of its 32 sums an independent accumulator. The sparse row kernels of
// the tensor package (sparse.go) and the forward substitution of
// Cholesky-QR (qr.go) have leaves too. On amd64 with AVX2 each leaf is
// assembly (the *_amd64.s files) whose vector lanes are different output
// elements, multiplied with VMULPD and added, subtracted or divided with
// VADDPD, VSUBPD or VDIVPD, never fused; elsewhere, and under the purego
// build tag, a Go leaf with explicitly rounded products computes the same
// bits (Leaf). The results carry the bits of the one-element-at-a-time
// code they replaced, which reference_test.go keeps and kernels_test.go
// and leaves_test.go compare against, and the same bits on every worker
// count. A Workspace keeps the temporaries of a run of leading-left SVDs.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. All operations panic on shape
// mismatches: shape errors are programming errors, not runtime conditions.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: got %d values, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// FromData wraps an existing row-major slice without copying.
// len(data) must equal rows*cols.
func FromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := range n {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i as a slice.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds %d×%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of bounds %d×%d", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range m.rows {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Data returns the underlying row-major slice (not a copy).
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	m.transposeInto(t)
	return t
}

// Mul returns the matrix product a·b. Large products run row-parallel.
func Mul(a, b *Matrix) *Matrix { return mulW(a, b, 0) }

// mulW is Mul with an explicit worker bound. Every element accumulates
// over k in ascending order, skipping the terms whose a[i][k] is zero, so
// the product is bit-identical for every worker count. It is taken as
// a·(bᵀ)ᵀ, with the columns of b packed as the right operand's rows.
func mulW(a, b *Matrix, workers int) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.cols)
	var p panels
	p.packCols(b)
	tiledInto(nativeLeaf, c, rowsOf(a), &p, workers, true)
	return c
}

// MulT returns a·bᵀ without forming bᵀ. Large products run row-parallel.
func MulT(a, b *Matrix) *Matrix { return mulTW(a, b, 0) }

// mulTW is MulT with an explicit worker bound: one Dot per element.
func mulTW(a, b *Matrix, workers int) *Matrix {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulT shape mismatch %d×%d · (%d×%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.rows)
	var p panels
	p.packRows(b)
	tiledInto(nativeLeaf, c, rowsOf(a), &p, workers, false)
	return c
}

// axpyNonzero computes y += a·x unless a is zero.
func axpyNonzero(a float64, x, y []float64) {
	if a == 0 {
		return
	}
	x = x[:len(y)]
	for j, v := range x {
		y[j] += a * v
	}
}

// TMul returns aᵀ·b without forming aᵀ. Large products run parallel over
// the rows of the result.
func TMul(a, b *Matrix) *Matrix { return tmulW(a, b, 0) }

// TMulWorkers is TMul with an explicit worker bound (0 = GOMAXPROCS,
// 1 = serial); the product is bit-identical for every worker count.
func TMulWorkers(a, b *Matrix, workers int) *Matrix { return tmulW(a, b, workers) }

// tmulW is TMul with an explicit worker bound.
func tmulW(a, b *Matrix, workers int) *Matrix {
	c := New(a.cols, b.cols)
	tmulInto(c, a, b, workers)
	return c
}

// tmulInto overwrites c with aᵀ·b. Workers own disjoint output rows, and
// each element accumulates over k in ascending order, skipping the terms
// whose a[k][i] is zero — the summation sequence of the serial k-outer
// loop — so the product is bit-identical for every worker count. Four
// output rows share each pass over b.
func tmulInto(c, a, b *Matrix, workers int) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: TMul shape mismatch (%d×%d)ᵀ · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if c.rows != a.cols || c.cols != b.cols {
		panic(fmt.Sprintf("mat: TMul output %d×%d, want %d×%d", c.rows, c.cols, a.cols, b.cols))
	}
	n := b.cols
	parallelForW(a.cols, a.rows*a.cols*n, workers, func(lo, hi int) {
		clear(c.data[lo*n : hi*n])
		i := lo
		for ; i+4 <= hi; i += 4 {
			rows := c.data[i*n : (i+4)*n]
			c0, c1, c2, c3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
			for k := range a.rows {
				av := a.data[k*a.cols+i : k*a.cols+i+4]
				a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
				brow := b.data[k*n : (k+1)*n]
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					axpyNonzero(a0, brow, c0)
					axpyNonzero(a1, brow, c1)
					axpyNonzero(a2, brow, c2)
					axpyNonzero(a3, brow, c3)
					continue
				}
				c0, c1, c2, c3 := c0[:len(brow)], c1[:len(brow)], c2[:len(brow)], c3[:len(brow)]
				for j, bv := range brow {
					c0[j] += a0 * bv
					c1[j] += a1 * bv
					c2[j] += a2 * bv
					c3[j] += a3 * bv
				}
			}
		}
		for ; i < hi; i++ {
			crow := c.data[i*n : (i+1)*n]
			for k := range a.rows {
				axpyNonzero(a.data[k*a.cols+i], b.data[k*n:(k+1)*n], crow)
			}
		}
	})
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d, want %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	for i := range m.rows {
		y[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return y
}

// TMulVec returns mᵀ·x without forming mᵀ.
func (m *Matrix) TMulVec(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("mat: TMulVec length %d, want %d", len(x), m.rows))
	}
	y := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// AddTo returns a+b as a new matrix.
func AddTo(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: Add shape mismatch %d×%d vs %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, a.cols)
	for i := range a.data {
		c.data[i] = a.data[i] + b.data[i]
	}
	return c
}

// Sub returns a−b as a new matrix.
func Sub(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: Sub shape mismatch %d×%d vs %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, a.cols)
	for i := range a.data {
		c.data[i] = a.data[i] - b.data[i]
	}
	return c
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	c := New(m.rows, m.cols)
	for i, v := range m.data {
		c.data[i] = s * v
	}
	return c
}

// SubMatrix returns a copy of rows [r0,r1) and columns [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: SubMatrix [%d:%d,%d:%d] out of bounds %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return s
}

// selectCols returns the matrix whose column k is column idx[k] of m.
func (m *Matrix) selectCols(idx []int) *Matrix {
	s := New(m.rows, len(idx))
	for i := range m.rows {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := s.data[i*s.cols : (i+1)*s.cols]
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return s
}

// transposeInto overwrites t (cols×rows) with the transpose of m.
func (m *Matrix) transposeInto(t *Matrix) {
	if t.rows != m.cols || t.cols != m.rows {
		panic(fmt.Sprintf("mat: transpose of %d×%d into %d×%d", m.rows, m.cols, t.rows, t.cols))
	}
	for i := range m.rows {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	return Norm2(m.data)
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether a and b have the same shape and entries within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := range m.rows {
		sb.WriteString("[")
		for j := range m.cols {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%8.4f", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}
