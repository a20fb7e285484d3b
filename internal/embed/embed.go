// Package embed holds the embedding-first representation of purified tag
// semantics. By Theorem 2, the purified tag distance D̂ij is a plain
// Euclidean distance in the k₂-dimensional embedding E = Λ₂·Y⁽²⁾:
//
//	D̂ij = ‖Eᵢ − Eⱼ‖₂,  Eᵢ = (λ₁·Y⁽²⁾ᵢ₁, …, λ_{k₂}·Y⁽²⁾ᵢ_{k₂}).
//
// TagEmbedding is therefore all the offline pipeline needs to cluster,
// persist and serve tag semantics: O(|T|·k₂) storage instead of the
// O(|T|²) dense matrix, with D̂ reduced to a lazy view (Dist, NearestK,
// PairwiseBlock) that is materialized only on demand.
package embed

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/topk"
	"repro/internal/tucker"
)

// TagEmbedding is an immutable |T|×k₂ embedding of the tag vocabulary.
// Row i is the Λ₂-scaled Y⁽²⁾ row of tag i. It is safe for concurrent
// reads.
type TagEmbedding struct {
	m *mat.Matrix
}

// FromDecomposition builds the embedding E = Λ₂·Y⁽²⁾ from a Tucker
// decomposition. Columns beyond len(Λ₂) are scaled by zero, matching the
// Theorem 2 diagonal quadratic form, which sums only over the available
// singular values.
func FromDecomposition(d *tucker.Decomposition) *TagEmbedding {
	rows, cols := d.Y2.Dims()
	lambda := d.Lambda[1]
	e := mat.New(rows, cols)
	for i := range rows {
		src, out := d.Y2.Row(i), e.Row(i)
		for j := range min(cols, len(lambda)) {
			out[j] = lambda[j] * src[j]
		}
	}
	return &TagEmbedding{m: e}
}

// FromMatrix wraps an already-scaled embedding matrix (rows = tags)
// without copying, e.g. one decoded from a v2 model file.
func FromMatrix(m *mat.Matrix) *TagEmbedding {
	if m == nil {
		panic("embed: nil embedding matrix")
	}
	return &TagEmbedding{m: m}
}

// NumTags returns |T|, the number of embedded tags.
func (e *TagEmbedding) NumTags() int { return e.m.Rows() }

// Dim returns k₂, the embedding dimensionality.
func (e *TagEmbedding) Dim() int { return e.m.Cols() }

// Matrix returns the underlying |T|×k₂ matrix (not a copy).
func (e *TagEmbedding) Matrix() *mat.Matrix { return e.m }

// Row returns tag i's embedding vector (a view, not a copy).
func (e *TagEmbedding) Row(i int) []float64 { return e.m.Row(i) }

// MemoryBytes reports the embedding's storage footprint.
func (e *TagEmbedding) MemoryBytes() int64 {
	return 8 * int64(e.m.Rows()) * int64(e.m.Cols())
}

// Dist returns the purified tag distance D̂ij as the Euclidean distance
// between embedding rows — Theorem 2 without the matrix.
func (e *TagEmbedding) Dist(i, j int) float64 {
	return math.Sqrt(e.sqDist(i, j))
}

func (e *TagEmbedding) sqDist(i, j int) float64 {
	return sqDistRows(e.m.Row(i), e.m.Row(j))
}

// sqDistRows is the hot inner kernel of every scan: squared Euclidean
// distance between two equal-length rows. Reslicing rj to len(ri) lets
// the compiler drop the per-element bounds check inside the loop.
func sqDistRows(ri, rj []float64) float64 {
	rj = rj[:len(ri)]
	var s float64
	for k, v := range ri {
		d := v - rj[k]
		s += d * d
	}
	return s
}

// CrossDist returns the Euclidean distance between row i of a and row j
// of b — the displacement of one tag between two embeddings. The
// embeddings may have different dimensionalities (core ranks can change
// between builds); missing trailing components count as zero, matching
// the Theorem 2 quadratic form, which sums only the available terms.
func CrossDist(a *TagEmbedding, i int, b *TagEmbedding, j int) float64 {
	ra, rb := a.m.Row(i), b.m.Row(j)
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	var s float64
	for k, v := range ra {
		var w float64
		if k < len(rb) {
			w = rb[k]
		}
		d := v - w
		s += d * d
	}
	return math.Sqrt(s)
}

// RowNorm returns the Euclidean norm of tag i's embedding row — the
// scale against which a row displacement is judged "moved".
func (e *TagEmbedding) RowNorm(i int) float64 {
	var s float64
	for _, v := range e.m.Row(i) {
		s += v * v
	}
	return math.Sqrt(s)
}

// RowPair matches a row of one embedding with a row of another — the
// same tag under two different builds' id assignments.
type RowPair struct{ A, B int }

// AlignTo solves the orthogonal Procrustes problem between two builds'
// embeddings: factor matrices are only defined up to column sign flips
// and rotations within near-degenerate singular subspaces, so raw rows
// of successive embeddings are not comparable. AlignTo finds the
// orthogonal map Q = argmin Σ ‖EₐQ − Rᵦ‖² over the matched pairs (via
// the SVD of EᵀR) and returns the embedding E·Q, rotated into ref's
// frame: displacement of a tag between builds is then the Euclidean
// distance between its aligned row and its ref row, immune to the
// rotation ambiguity. When the two dimensionalities differ, Q maps into
// ref's dimensionality and the alignment is least-squares rather than
// exactly isometric.
func (e *TagEmbedding) AlignTo(ref *TagEmbedding, pairs []RowPair) *TagEmbedding {
	k, kr := e.Dim(), ref.Dim()
	if k == 0 || kr == 0 {
		return &TagEmbedding{m: mat.New(e.NumTags(), kr)}
	}
	m := mat.New(k, kr)
	for _, p := range pairs {
		ea, rb := e.Row(p.A), ref.Row(p.B)
		for a, va := range ea {
			row := m.Row(a)
			for b, vb := range rb {
				row[b] += va * vb
			}
		}
	}
	svd := mat.ThinSVD(m)
	// ThinSVD zeroes the singular-vector columns of null singular values,
	// which would make Q rank-deficient when the matched rows span fewer
	// dimensions than the embeddings — and a norm-shrinking Q would
	// overestimate every row's displacement. Complete the null directions
	// to orthonormal bases (any completion is a Procrustes optimum; this
	// one is deterministic) so Q is a partial isometry of full rank.
	u := completeBasis(svd.U, svd.S)
	v := completeBasis(svd.V, svd.S)
	q := mat.MulT(u, v) // U·Vᵀ, the Procrustes optimum
	return &TagEmbedding{m: mat.Mul(e.m, q)}
}

// completeBasis replaces the numerically unreliable columns of a
// singular-vector matrix with a deterministic orthonormal completion
// (Gram–Schmidt over the standard basis vectors). Columns belonging to
// singular values below smax·1e-6 are treated as null: ThinSVD zeroes
// the exactly-null ones, and the near-null ones are noise-derived (the
// Gram-matrix route loses half the precision), so neither is a usable
// direction — while any genuinely informative overlap direction sits
// far above the cutoff.
func completeBasis(b *mat.Matrix, s []float64) *mat.Matrix {
	n, k := b.Dims()
	var smax float64
	for _, v := range s {
		if v > smax {
			smax = v
		}
	}
	tol := smax * 1e-6
	deficient := make([]int, 0, k)
	for j := range k {
		if j >= len(s) || s[j] <= tol {
			deficient = append(deficient, j)
		}
	}
	if len(deficient) == 0 {
		return b
	}
	out := b.Clone()
	col := make([]float64, n)
	for _, j := range deficient {
		for cand := range n {
			for i := range col {
				col[i] = 0
			}
			col[cand] = 1
			// Orthogonalize against every other column (not-yet-completed
			// deficient columns are zero, so they no-op here and later
			// orthogonalize against this one — no candidate is reused).
			for c := range k {
				if c == j {
					continue
				}
				var dot float64
				for i := range n {
					dot += col[i] * out.At(i, c)
				}
				for i := range n {
					col[i] -= dot * out.At(i, c)
				}
			}
			var norm float64
			for _, v := range col {
				norm += v * v
			}
			if norm > 1e-6 {
				norm = math.Sqrt(norm)
				for i := range n {
					out.Set(i, j, col[i]/norm)
				}
				break
			}
		}
	}
	return out
}

// Neighbor is one entry of a nearest-neighbor list.
type Neighbor struct {
	// Tag is the neighbor's tag id.
	Tag int
	// Dist is the purified distance D̂ to the probe tag.
	Dist float64
}

// NearestK returns the k tags closest to tag i (excluding i itself),
// nearest first. Ties are broken by lower tag id, so the result is
// deterministic. k ≤ 0 or k ≥ |T|−1 returns all other tags. Candidate
// blocks are scanned in parallel once the scan is large enough to pay
// for the goroutines (inline on the caller's goroutine below that), each
// keeping a bounded max-heap, so the cost is O(|T|·k₂ + |T|·log k) work
// and O(k) memory per worker — never a full row of D̂.
func (e *TagEmbedding) NearestK(i, k int) []Neighbor {
	n := e.NumTags()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("embed: tag %d out of range [0,%d)", i, n))
	}
	if n <= 1 {
		return nil
	}
	if k <= 0 || k > n-1 {
		k = n - 1
	}

	workers := runtime.GOMAXPROCS(0)
	// Below ~64k squared-distance ops the scan is cheaper inline.
	if workers > 1 && n*e.Dim() < 1<<16 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	var all []Neighbor
	if workers == 1 {
		all = e.scanNearestSq(i, k, 0, n)
	} else {
		chunk := (n + workers - 1) / workers
		heaps := make([][]Neighbor, 0, workers)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				h := e.scanNearestSq(i, k, lo, hi)
				mu.Lock()
				heaps = append(heaps, h)
				mu.Unlock()
			}(lo, hi)
		}
		wg.Wait()

		// Merge the per-worker candidates. The top-k set under the strict
		// total order (dist, id) is unique, so the partitioning does not
		// affect the result.
		for _, h := range heaps {
			all = append(all, h...)
		}
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	for idx := range all {
		all[idx].Dist = math.Sqrt(all[idx].Dist)
	}
	return all
}

// scanNearestSq is the bounded nearest-neighbor scan over one candidate
// block: the (up to) k nearest tags to tag i among rows [lo, hi),
// excluding i itself, as squared distances in heap order.
func (e *TagEmbedding) scanNearestSq(i, k, lo, hi int) []Neighbor {
	h := topk.New(k, worseNeighbor)
	// Hoist the probe row and the backing array out of the loop so the
	// inner scan indexes flat data instead of re-deriving row views.
	ri := e.m.Row(i)
	cols := e.m.Cols()
	data := e.m.Data()
	for j := lo; j < hi; j++ {
		if j == i {
			continue
		}
		h.Offer(Neighbor{Tag: j, Dist: sqDistRows(ri, data[j*cols:(j+1)*cols])})
	}
	return h.Items()
}

// sortNeighbors orders a candidate list nearest first, ties broken by
// lower tag id — the strict total order every top-k selection here uses.
func sortNeighbors(all []Neighbor) {
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Tag < all[b].Tag
	})
}

// worseNeighbor orders eviction for the bounded selection: larger
// distance first, ties by higher tag id — the strict total order that
// makes the selected set unique.
func worseNeighbor(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Tag > b.Tag
}

// PairwiseBlock materializes rows [lo, hi) of the distance matrix D̂ as
// an (hi−lo)×|T| block — the unit of work for out-of-core
// consumers that stream D̂ without ever holding all of it.
func (e *TagEmbedding) PairwiseBlock(lo, hi int) *mat.Matrix {
	n := e.NumTags()
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("embed: block [%d,%d) out of range [0,%d)", lo, hi, n))
	}
	out := mat.New(hi-lo, n)
	for i := lo; i < hi; i++ {
		row := out.Row(i - lo)
		for j := range n {
			if j == i {
				continue
			}
			row[j] = e.Dist(i, j)
		}
	}
	return out
}

// Pairwise materializes the full |T|×|T| distance matrix. It exists for
// consumers that genuinely need the dense view (the exact spectral path
// and the paper's evaluation tables); production serving never calls it.
func (e *TagEmbedding) Pairwise() *mat.Matrix {
	out, err := e.PairwiseContext(context.Background())
	if err != nil {
		// Background contexts are never cancelled, so this is unreachable.
		panic(err)
	}
	return out
}

// PairwiseContext is Pairwise with cooperative cancellation and blocked
// parallel row computation: the upper triangle is split into contiguous
// row blocks across GOMAXPROCS workers, and the context is checked
// between rows.
func (e *TagEmbedding) PairwiseContext(ctx context.Context) (*mat.Matrix, error) {
	n := e.NumTags()
	out := mat.New(n, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && n*n*e.Dim() < 1<<18 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	var wg sync.WaitGroup
	// Rows are dealt round-robin so the triangular workload stays
	// balanced (row i has n−i−1 pairs).
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				for j := i + 1; j < n; j++ {
					d := e.Dist(i, j)
					out.Set(i, j, d)
					out.Set(j, i, d)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
