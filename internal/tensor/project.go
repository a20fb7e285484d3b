package tensor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mat"
)

// ProjectedUnfold computes, directly from the sparse coordinate data, the
// mode-n unfolding of the tensor projected by the transposed factor
// matrices in the other two modes:
//
//	mode 1: W = [F ×₂ Bᵀ ×₃ Cᵀ]₍₁₎  with B = y2 (I2×J2), C = y3 (I3×J3)
//	mode 2: W = [F ×₁ Aᵀ ×₃ Cᵀ]₍₂₎  with A = y1 (I1×J1), C = y3 (I3×J3)
//	mode 3: W = [F ×₁ Aᵀ ×₂ Bᵀ]₍₃₎  with A = y1 (I1×J1), B = y2 (I2×J2)
//
// This is the workhorse of the HOOI sweep: the dense projected tensor is
// never materialized; each sparse entry contributes a rank-1 outer product
// of two factor rows. Cost is O(nnz · Ja · Jb).
//
// The column ordering matches Dense3.Unfold, so results are directly
// comparable with the dense oracle in tests.
func ProjectedUnfold(f *Sparse3, mode int, ya, yb *mat.Matrix) *mat.Matrix {
	return ProjectedUnfoldWorkers(f, mode, ya, yb, 0)
}

// ProjectedUnfoldWorkers is ProjectedUnfold with an explicit bound on the
// worker pool that block-partitions the output rows (0 = one worker per
// logical CPU, 1 = serial). Entries are bucketed by output row with a
// deterministic counting sort and each row is accumulated by exactly one
// worker in the same entry order as the serial loop, so the unfolding is
// bit-identical for every worker count.
func ProjectedUnfoldWorkers(f *Sparse3, mode int, ya, yb *mat.Matrix, workers int) *mat.Matrix {
	i1, i2, i3 := f.Dims()
	var rows int
	var rowOf func(Entry) (row, ia, ib int)
	switch mode {
	case 1:
		checkFactor("mode-1 projection", ya, i2)
		checkFactor("mode-1 projection", yb, i3)
		rows = i1
		rowOf = func(e Entry) (int, int, int) { return e.I, e.J, e.K }
	case 2:
		checkFactor("mode-2 projection", ya, i1)
		checkFactor("mode-2 projection", yb, i3)
		rows = i2
		rowOf = func(e Entry) (int, int, int) { return e.J, e.I, e.K }
	case 3:
		checkFactor("mode-3 projection", ya, i1)
		checkFactor("mode-3 projection", yb, i2)
		rows = i3
		rowOf = func(e Entry) (int, int, int) { return e.K, e.I, e.J }
	default:
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	entries := f.Entries()
	cols := ya.Cols() * yb.Cols()

	// Bucket entries by output row (counting sort) so workers own
	// disjoint row ranges and accumulate without synchronization.
	starts := make([]int, rows+1)
	for _, e := range entries {
		r, _, _ := rowOf(e)
		starts[r+1]++
	}
	for r := 0; r < rows; r++ {
		starts[r+1] += starts[r]
	}
	order := make([]int, len(entries))
	fill := append([]int(nil), starts[:rows]...)
	for idx, e := range entries {
		r, _, _ := rowOf(e)
		order[fill[r]] = idx
		fill[r]++
	}

	w := mat.New(rows, cols)
	parallelRows(starts, len(entries)*cols, workers, func(lo, hi int) {
		term := func(idx int) outerTerm {
			e := entries[idx]
			_, ia, ib := rowOf(e)
			return outerTerm{v: e.V, ra: ya.Row(ia), rb: yb.Row(ib)}
		}
		for r := lo; r < hi; r++ {
			dst := w.Row(r)
			row := order[starts[r]:starts[r+1]]
			n := 0
			for ; n+4 <= len(row); n += 4 {
				accumOuter4(dst, [4]outerTerm{term(row[n]), term(row[n+1]), term(row[n+2]), term(row[n+3])})
			}
			for ; n < len(row); n++ {
				t := term(row[n])
				accumOuter(dst, t.v, t.ra, t.rb)
			}
		}
	})
	return w
}

// parallelRows runs fn over [0, rows) split into one contiguous run of
// rows per worker when cost (an op-count estimate) warrants it; row
// r holds entries starts[r]..starts[r+1], and the runs are cut so each
// holds about the same number of entries — tag and resource popularity
// is Zipf-skewed, so equal row counts would leave most of the work with
// one worker. maxWorkers ≤ 0 means GOMAXPROCS.
func parallelRows(starts []int, cost, maxWorkers int, fn func(lo, hi int)) {
	rows := len(starts) - 1
	workers := min(mat.Workers(maxWorkers), rows)
	if cost < 1<<16 || workers <= 1 {
		fn(0, rows)
		return
	}
	nnz := starts[rows]
	var wg sync.WaitGroup
	lo := 0
	for p := 1; p <= workers; p++ {
		hi := rows
		if p < workers {
			hi = sort.SearchInts(starts, p*nnz/workers)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

func checkFactor(ctx string, y *mat.Matrix, wantRows int) {
	if y.Rows() != wantRows {
		panic(fmt.Sprintf("tensor: %s factor has %d rows, want %d", ctx, y.Rows(), wantRows))
	}
}

// accumOuter adds v · (ra ⊗ rb) to the flattened row dst, where
// dst[a*len(rb)+b] += v·ra[a]·rb[b].
func accumOuter(dst []float64, v float64, ra, rb []float64) {
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

// outerTerm is one sparse entry's contribution v · (ra ⊗ rb) to a row of
// a projected unfolding.
type outerTerm struct {
	v      float64
	ra, rb []float64
}

// accumOuter4 adds four terms to dst in one pass, leaving in every
// element the bits four accumOuter calls in the same order would: the sum
// d + s₀b₀ + s₁b₁ + s₂b₂ + s₃b₃ is evaluated left to right, and a segment
// in which some scale sᵢ is zero — which accumOuter skips — is handed
// back to it term by term.
func accumOuter4(dst []float64, t [4]outerTerm) {
	nb := len(t[0].rb)
	rb0, rb1, rb2, rb3 := t[0].rb, t[1].rb[:nb], t[2].rb[:nb], t[3].rb[:nb]
	for a := range t[0].ra {
		s0, s1, s2, s3 := t[0].v*t[0].ra[a], t[1].v*t[1].ra[a], t[2].v*t[2].ra[a], t[3].v*t[3].ra[a]
		seg := dst[a*nb : (a+1)*nb]
		if s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
			for _, x := range t {
				accumOuter(seg, x.v, x.ra[a:a+1], x.rb)
			}
			continue
		}
		for b, d := range seg {
			seg[b] = d + s0*rb0[b] + s1*rb1[b] + s2*rb2[b] + s3*rb3[b]
		}
	}
}

// Core computes the Tucker core S = F ×₁ Y⁽¹⁾ᵀ ×₂ Y⁽²⁾ᵀ ×₃ Y⁽³⁾ᵀ
// (Equation 16) from the sparse tensor and the three factor matrices
// (Y⁽ⁿ⁾ is I_n×J_n). It computes the mode-1 projected unfolding first and
// then contracts mode 1, so the full projected tensor in original
// coordinates is never formed.
func Core(f *Sparse3, y1, y2, y3 *mat.Matrix) *Dense3 {
	return CoreWorkers(f, y1, y2, y3, 0)
}

// CoreWorkers is Core with an explicit bound on the worker pool used for
// the unfolding product and the mode-1 contraction (0 = one worker per
// logical CPU, 1 = serial). The core is bit-identical for every worker
// count.
func CoreWorkers(f *Sparse3, y1, y2, y3 *mat.Matrix, workers int) *Dense3 {
	i1, _, _ := f.Dims()
	checkFactor("core", y1, i1)
	w := ProjectedUnfoldWorkers(f, 1, y2, y3, workers) // I1 × (J2·J3)
	s1 := mat.TMulWorkers(y1, w, workers)              // J1 × (J2·J3)
	return FoldDense3(s1, 1, y1.Cols(), y2.Cols(), y3.Cols())
}

// Reconstruct computes F̂ = S ×₁ Y⁽¹⁾ ×₂ Y⁽²⁾ ×₃ Y⁽³⁾ (Equation 14) as a
// dense tensor. This materializes the purified tensor and is intended only
// for tests and small examples — the whole point of Theorems 1 and 2 is
// that production code never calls this.
func Reconstruct(s *Dense3, y1, y2, y3 *mat.Matrix) *Dense3 {
	return s.ModeProduct(1, y1).ModeProduct(2, y2).ModeProduct(3, y3)
}

// Mode2Matrix aggregates the tensor over the user dimension, producing
// the traditional tag×resource matrix of Figure 3 used by the LSI and
// BOW baselines: M[t, r] = Σ_u F[u, t, r].
func Mode2Matrix(f *Sparse3) *mat.Matrix {
	_, i2, i3 := f.Dims()
	m := mat.New(i2, i3)
	for _, e := range f.Entries() {
		m.Add(e.J, e.K, e.V)
	}
	return m
}
