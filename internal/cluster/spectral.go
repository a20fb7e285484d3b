package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// SpectralOptions configures Spectral, following Section V.
type SpectralOptions struct {
	// Sigma is the affinity bandwidth: A[i,j] = exp(−D²[i,j]/σ²). If zero,
	// sigma is set to the median of the off-diagonal distances, a standard
	// self-tuning choice.
	Sigma float64
	// K is the number of clusters. If zero, K is chosen as the smallest
	// number of leading eigenvectors of L covering VarianceCovered of the
	// spectrum mass (the paper's "95% of the variance" rule).
	K int
	// VarianceCovered is used when K is zero. Zero means 0.95.
	VarianceCovered float64
	// MaxK bounds the automatic choice of K. Zero means n/2.
	MaxK int
	// Seed drives k-means seeding and (for large n) the eigensolver.
	Seed int64
	// LocalScaling, when positive, replaces the global bandwidth with
	// Zelnik-Manor–Perona local scaling: A[i,j] = exp(−D²[i,j]/(σᵢσⱼ))
	// where σᵢ is item i's distance to its LocalScaling-th nearest
	// neighbor. This compensates for heteroscedastic distance scales
	// (popular tags live at much larger radii than rare ones) and
	// overrides Sigma. A value of 7 is the standard choice.
	LocalScaling int
	// KNN, when positive, sparsifies the affinity to the union of each
	// item's KNN nearest neighbors (affinities outside the neighborhood
	// graph are zeroed). Latent-semantic tag distances are locally
	// reliable but globally heteroscedastic; clustering the neighborhood
	// graph uses exactly the reliable part.
	KNN int
}

// SpectralResult is the outcome of spectral clustering.
type SpectralResult struct {
	// Assign[i] is the cluster (concept) of item i.
	Assign []int
	// K is the number of clusters used.
	K int
	// Sigma is the affinity bandwidth used.
	Sigma float64
	// EigenvalueMass is the fraction of the spectrum mass covered by the
	// K leading eigenvectors (diagnostic).
	EigenvalueMass float64
}

// Spectral clusters n items given their pairwise distance matrix D
// (symmetric, zero diagonal) with the Ng–Jordan–Weiss algorithm exactly
// as listed in Section V:
//
//  1. A[i,j] = exp(−D²[i,j]/σ²) for i≠j, A[i,i] = 0.
//  2. M = diag(row sums of A); L = M^(−1/2) · A · M^(−1/2).
//  3. X = the k leading eigenvectors of L, rows normalized to unit length.
//  4. k-means on the rows of X.
func Spectral(d *mat.Matrix, opts SpectralOptions) *SpectralResult {
	res, x := spectralCore(d, opts)
	if x == nil {
		return res
	}
	km := KMeans(x, res.K, KMeansOptions{Seed: opts.Seed})
	res.Assign = km.Assign
	return res
}

// spectralCore performs steps 1–3 of the algorithm (affinity, normalized
// Laplacian, row-normalized eigenvector embedding), leaving the final
// k-means to the caller; Spectral and SoftSpectral share it.
func spectralCore(d *mat.Matrix, opts SpectralOptions) (*SpectralResult, *mat.Matrix) {
	n, c := d.Dims()
	if n != c {
		panic(fmt.Sprintf("cluster: distance matrix must be square, got %d×%d", n, c))
	}
	if n == 0 {
		return &SpectralResult{}, nil
	}
	sigma := opts.Sigma
	if sigma == 0 {
		sigma = medianOffDiagonal(d)
		if sigma == 0 {
			sigma = 1
		}
	}

	// Step 1: affinity matrix, with either the paper's global bandwidth
	// or per-item local scaling.
	a := mat.New(n, n)
	if opts.LocalScaling > 0 {
		local := localScales(d, opts.LocalScaling)
		for i := range n {
			for j := range n {
				if i == j {
					continue
				}
				dv := d.At(i, j)
				denom := local[i] * local[j]
				if denom == 0 {
					denom = sigma * sigma
				}
				a.Set(i, j, math.Exp(-dv*dv/denom))
			}
		}
	} else {
		s2 := sigma * sigma
		for i := range n {
			for j := range n {
				if i == j {
					continue
				}
				dv := d.At(i, j)
				a.Set(i, j, math.Exp(-dv*dv/s2))
			}
		}
	}

	// Optional k-NN sparsification: zero affinities outside the union
	// neighborhood graph.
	if opts.KNN > 0 && opts.KNN < n-1 {
		keep := make([][]bool, n)
		for i := range keep {
			keep[i] = make([]bool, n)
		}
		type dj struct {
			d float64
			j int
		}
		row := make([]dj, 0, n-1)
		for i := range n {
			row = row[:0]
			for j := range n {
				if j != i {
					row = append(row, dj{d: d.At(i, j), j: j})
				}
			}
			sort.Slice(row, func(a, b int) bool {
				if row[a].d != row[b].d {
					return row[a].d < row[b].d
				}
				return row[a].j < row[b].j
			})
			for r := 0; r < opts.KNN && r < len(row); r++ {
				keep[i][row[r].j] = true
				keep[row[r].j][i] = true
			}
		}
		for i := range n {
			for j := range n {
				if i != j && !keep[i][j] {
					a.Set(i, j, 0)
				}
			}
		}
	}

	// Step 2: normalized affinity L = M^(−1/2) A M^(−1/2).
	minv := make([]float64, n)
	for i := range n {
		var sum float64
		for j := range n {
			sum += a.At(i, j)
		}
		if sum > 0 {
			minv[i] = 1 / math.Sqrt(sum)
		}
	}
	l := mat.New(n, n)
	for i := range n {
		for j := range n {
			l.Set(i, j, minv[i]*a.At(i, j)*minv[j])
		}
	}

	// Step 3: leading eigenvectors. L's spectrum lies in [−1, 1]; shifting
	// by +I makes the operator PSD with the same eigenvector ordering, so
	// subspace iteration is applicable for large n.
	k := opts.K
	var x *mat.Matrix
	var mass float64
	if k > 0 {
		eig := topEigenvectors(l, k, opts.Seed, n)
		x = eig.Vectors
		mass = spectrumMass(eig.Values, k, n, l)
	} else {
		full := fullEigen(l)
		k, mass = chooseK(full.Values, opts)
		x = full.Vectors.SubMatrix(0, n, 0, k)
	}

	// Row-normalize X.
	for i := range n {
		mat.Normalize(x.Row(i))
	}

	return &SpectralResult{K: k, Sigma: sigma, EigenvalueMass: mass}, x
}

// topEigenvectors extracts the k leading eigenvectors of l. For small n
// the exact dense solver is used; for large n, subspace iteration on the
// shifted PSD operator L+I.
func topEigenvectors(l *mat.Matrix, k int, seed int64, n int) *mat.Eigen {
	if k > n {
		k = n
	}
	if n <= 400 {
		full := fullEigen(l)
		return &mat.Eigen{
			Values:  full.Values[:k],
			Vectors: full.Vectors.SubMatrix(0, n, 0, k),
		}
	}
	shifted := &shiftOp{m: mat.MatrixOperator{M: l}}
	eig := mat.SubspaceIteration(shifted, k, mat.SubspaceOptions{Seed: uint64(seed)})
	for i := range eig.Values {
		eig.Values[i] -= 1
	}
	return eig
}

func fullEigen(l *mat.Matrix) *mat.Eigen {
	if l.Rows() <= 64 {
		return mat.SymEig(l)
	}
	return mat.SymEigTridiag(l)
}

// shiftOp applies z = (M+I)·q.
type shiftOp struct{ m mat.MatrixOperator }

func (o *shiftOp) Dim() int { return o.m.Dim() }

func (o *shiftOp) ApplyBlock(q, z *mat.Matrix, workers int) {
	o.m.ApplyBlock(q, z, workers)
	zd := z.Data()
	for i, v := range q.Data() {
		zd[i] += v
	}
}

// chooseK picks the smallest k whose leading eigenvalues cover the target
// fraction of the positive spectrum mass.
func chooseK(values []float64, opts SpectralOptions) (int, float64) {
	target := opts.VarianceCovered
	if target == 0 {
		target = 0.95
	}
	maxK := opts.MaxK
	if maxK == 0 {
		maxK = (len(values) + 1) / 2
	}
	if maxK > len(values) {
		maxK = len(values)
	}
	var total float64
	for _, v := range values {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return 1, 1
	}
	var acc float64
	for i := range maxK {
		if values[i] > 0 {
			acc += values[i]
		}
		if acc/total >= target {
			return i + 1, acc / total
		}
	}
	return maxK, acc / total
}

// spectrumMass estimates the covered fraction using the trace of L as the
// total positive mass proxy when only k eigenvalues are known.
func spectrumMass(values []float64, k, n int, l *mat.Matrix) float64 {
	var tr float64
	for i := range n {
		tr += l.At(i, i)
	}
	var acc float64
	for i := 0; i < k && i < len(values); i++ {
		if values[i] > 0 {
			acc += values[i]
		}
	}
	// The trace of the normalized affinity with zero diagonal is 0, so
	// fall back to the sum of located eigenvalues as the denominator.
	denom := tr
	if denom <= 0 {
		denom = acc
	}
	if denom == 0 {
		return 0
	}
	return acc / denom
}

// localScales returns each item's distance to its k-th nearest neighbor.
func localScales(d *mat.Matrix, k int) []float64 {
	n := d.Rows()
	out := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := range n {
		row = row[:0]
		for j := range n {
			if j != i {
				row = append(row, d.At(i, j))
			}
		}
		sort.Float64s(row)
		idx := k - 1
		if idx >= len(row) {
			idx = len(row) - 1
		}
		if idx < 0 {
			continue
		}
		out[i] = row[idx]
	}
	return out
}

// medianOffDiagonal returns the median of the strictly-upper-triangle
// distances, a robust default bandwidth.
func medianOffDiagonal(d *mat.Matrix) float64 {
	n := d.Rows()
	var vals []float64
	for i := range n {
		for j := i + 1; j < n; j++ {
			vals = append(vals, d.At(i, j))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return 0.5 * (vals[m-1] + vals[m])
}
