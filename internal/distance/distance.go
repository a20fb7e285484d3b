// Package distance implements the pairwise tag distance measures of
// Sections IV and VI-B:
//
//   - CubeLSI: distances in the purified tensor F̂, computed without ever
//     materializing F̂ via Theorem 1 (Σ = S₍₂₎S₍₂₎ᵀ from the core tensor)
//     and Theorem 2 (Σ = diag(Λ₂²) from the ALS by-product).
//   - CubeSim: direct slice Frobenius distances on the raw tensor F, in
//     both the paper's dense formulation and a sparse optimization.
//   - LSI: 2-D latent semantic distances on the user-aggregated
//     tag×resource matrix.
//   - BruteForce: the O(I1·I3)-per-pair oracle that materializes F̂,
//     used in tests to validate the theorems.
package distance

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// CubeLSI computes purified tag distances from a Tucker decomposition.
type CubeLSI struct {
	y2 *mat.Matrix
	// sigma is Σ = S₍₂₎S₍₂₎ᵀ (Theorem 1, exact for any orthonormal
	// factors).
	sigma *mat.Matrix
	// diag is Λ₂² (Theorem 2, exact at ALS convergence where Σ is
	// diagonal).
	diag []float64
}

// NewCubeLSI prepares the Theorem 1/2 structures from a decomposition.
// Only the core tensor and Y⁽²⁾ are retained — the memory story of
// Table VII.
func NewCubeLSI(d *tucker.Decomposition) *CubeLSI {
	s2 := d.Core.Unfold(2)
	sigma := mat.MulT(s2, s2)
	diag := make([]float64, len(d.Lambda[1]))
	for i, l := range d.Lambda[1] {
		diag[i] = l * l
	}
	return &CubeLSI{y2: d.Y2, sigma: sigma, diag: diag}
}

// NumTags returns the number of tags (rows of Y⁽²⁾).
func (c *CubeLSI) NumTags() int { return c.y2.Rows() }

// Distance returns D̂ij by Theorem 1:
//
//	D̂ij = sqrt((Y⁽²⁾ᵢ − Y⁽²⁾ⱼ) Σ (Y⁽²⁾ᵢ − Y⁽²⁾ⱼ)ᵀ), Σ = S₍₂₎S₍₂₎ᵀ.
func (c *CubeLSI) Distance(i, j int) float64 {
	x := mat.SubVec(c.y2.Row(i), c.y2.Row(j))
	v := quadForm(x, c.sigma)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// DistanceDiag returns D̂ij by Theorem 2, using the diagonal
// Σ = ((Λ₂)₁:J₂,₁:J₂)² from the ALS by-product (Equation 21). This is the
// fast path used in production: O(J₂) per pair.
func (c *CubeLSI) DistanceDiag(i, j int) float64 {
	ri, rj := c.y2.Row(i), c.y2.Row(j)
	var s float64
	for k, l2 := range c.diag {
		d := ri[k] - rj[k]
		s += l2 * d * d
	}
	return math.Sqrt(s)
}

// Pairwise returns the full symmetric distance matrix using the Theorem 2
// fast path (Algorithm 1's double loop).
func (c *CubeLSI) Pairwise() *mat.Matrix {
	out, err := c.PairwiseContext(context.Background())
	if err != nil {
		// Background contexts are never cancelled, so this is unreachable.
		panic(err)
	}
	return out
}

// PairwiseContext is Pairwise with cooperative cancellation, checked once
// per tag row: the O(|T|²·J₂) double loop aborts within one row of the
// context being cancelled.
func (c *CubeLSI) PairwiseContext(ctx context.Context) (*mat.Matrix, error) {
	n := c.NumTags()
	out := mat.New(n, n)
	for i := range n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			d := c.DistanceDiag(i, j)
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out, nil
}

// PairwiseTheorem1 returns the full matrix via the general quadratic form
// (tests and ablations; identical to Pairwise at ALS convergence).
func (c *CubeLSI) PairwiseTheorem1() *mat.Matrix {
	n := c.NumTags()
	out := mat.New(n, n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			d := c.Distance(i, j)
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out
}

// MemoryBytes reports the storage footprint of the retained structures
// (S-derived Σ, Λ₂², and Y⁽²⁾), the right-hand column of Table VII.
func (c *CubeLSI) MemoryBytes() int64 {
	sig := int64(c.sigma.Rows()) * int64(c.sigma.Cols())
	y := int64(c.y2.Rows()) * int64(c.y2.Cols())
	return 8 * (sig + y + int64(len(c.diag)))
}

func quadForm(x []float64, s *mat.Matrix) float64 {
	sx := s.MulVec(x)
	return mat.Dot(x, sx)
}

// BruteForce materializes the purified tensor F̂ = S ×₁Y⁽¹⁾ ×₂Y⁽²⁾ ×₃Y⁽³⁾
// and computes all pairwise slice distances directly (Equation 17). It is
// the oracle against which Theorems 1 and 2 are tested; production code
// never calls it.
func BruteForce(d *tucker.Decomposition) *mat.Matrix {
	fh := d.Reconstruct()
	_, n, _ := fh.Dims()
	out := mat.New(n, n)
	for i := range n {
		si := fh.SliceMode2(i)
		for j := i + 1; j < n; j++ {
			dist := mat.Sub(si, fh.SliceMode2(j)).FrobNorm()
			out.Set(i, j, dist)
			out.Set(j, i, dist)
		}
	}
	return out
}

// CubeSimSparse computes the raw-tensor slice distances
// D[i,j] = ||F:,ti,: − F:,tj,:||_F (Section VI-B's CubeSim baseline)
// exploiting sparsity: O(nnz(ti)+nnz(tj)) per pair.
func CubeSimSparse(f *tensor.Sparse3) *mat.Matrix {
	_, n, _ := f.Dims()
	idx := f.Mode2SliceIndex()
	out := mat.New(n, n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			d := tensor.SliceDistanceFromIndex(idx, i, j)
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out
}

// CubeSimDense computes the same distances the way the paper's CubeSim
// does — materializing each pair of dense I1×I3 user–resource slices and
// taking the Frobenius norm of their difference, at O(I1·I3) per pair.
// This is the cost model behind Table V (CubeSim did not finish on
// Delicious within 100 hours). The budget callback, if non-nil, is polled
// between outer iterations, from the second on: the first row always
// completes, so a caller can extrapolate the full cost from at least one
// row. Returning false aborts and the function reports how many tag rows
// were completed.
func CubeSimDense(f *tensor.Sparse3, budget func() bool) (d *mat.Matrix, completedRows int) {
	i1, n, i3 := f.Dims()
	idx := f.Mode2SliceIndex()
	out := mat.New(n, n)
	si := make([]float64, i1*i3)
	sj := make([]float64, i1*i3)
	fill := func(buf []float64, t int) {
		for k := range buf {
			buf[k] = 0
		}
		for _, e := range idx[t] {
			buf[e.I*i3+e.K] = e.V
		}
	}
	for i := range n {
		if i > 0 && budget != nil && !budget() {
			return out, i
		}
		fill(si, i)
		for j := i + 1; j < n; j++ {
			fill(sj, j)
			var ss float64
			for k := range si {
				diff := si[k] - sj[k]
				ss += diff * diff
			}
			dd := math.Sqrt(ss)
			out.Set(i, j, dd)
			out.Set(j, i, dd)
		}
	}
	return out, n
}

// LSI computes 2-D latent semantic tag distances (the LSI baseline of
// Section VI-B): the tensor is collapsed over users into the tag×resource
// matrix of Figure 3, a rank-k truncated SVD M ≈ U·diag(σ)·Vᵀ purifies
// it, and tags are compared in the purified space:
//
//	d(i,j) = ||(Uᵢ − Uⱼ)·diag(σ)||₂,
//
// which equals the row distance ||M̂ᵢ,: − M̂ⱼ,:||₂ because V is
// orthonormal — the 2-D analogue of Theorem 1.
func LSI(f *tensor.Sparse3, k int, opts mat.SubspaceOptions) *mat.Matrix {
	m := tensor.Mode2Matrix(f)
	rows, cols := m.Dims()
	maxK := rows
	if cols < maxK {
		maxK = cols
	}
	if k > maxK {
		k = maxK
	}
	if k <= 0 {
		panic(fmt.Sprintf("distance: LSI rank %d invalid", k))
	}
	var svd *mat.SVD
	if rows*cols <= 128*128 || k == maxK {
		full := mat.ThinSVD(m)
		svd = &mat.SVD{U: full.U.SubMatrix(0, rows, 0, k), S: full.S[:k], V: nil}
	} else {
		svd = mat.TruncatedSVD(m, k, opts)
	}
	out := mat.New(rows, rows)
	for i := range rows {
		ui := svd.U.Row(i)
		for j := i + 1; j < rows; j++ {
			uj := svd.U.Row(j)
			var s float64
			for q := range k {
				d := (ui[q] - uj[q]) * svd.S[q]
				s += d * d
			}
			d := math.Sqrt(s)
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out
}

// NearestNeighbor returns, for each tag, the index of its closest other
// tag under the given distance matrix (ties broken by lower index) — the
// t_sim of Section VI-C.
func NearestNeighbor(d *mat.Matrix) []int {
	n := d.Rows()
	out := make([]int, n)
	for i := range n {
		best, bd := -1, math.Inf(1)
		for j := range n {
			if j == i {
				continue
			}
			if v := d.At(i, j); v < bd {
				bd, best = v, j
			}
		}
		out[i] = best
	}
	return out
}
