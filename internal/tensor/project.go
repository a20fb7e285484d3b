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
// logical CPU, 1 = serial). It is a one-shot Projector: the unfolding is
// bit-identical for every worker count, and the caller owns it.
func ProjectedUnfoldWorkers(f *Sparse3, mode int, ya, yb *mat.Matrix, workers int) *mat.Matrix {
	return NewProjector(f, mode).Unfold(ya, yb, workers)
}

// Projector computes the mode-n projected unfoldings of one tensor over
// and over, as the sweeps of a decomposition do. It buckets the entries
// by output row once, with a stable counting sort, and keeps the array
// its unfoldings are written to between calls. A Projector is not safe
// for concurrent use.
type Projector struct {
	leaf       mat.Leaf
	mode, rows int
	dimA, dimB int     // rows of the two factors
	starts     []int   // row r holds bucket entries starts[r]…starts[r+1]−1
	ia, ib     []int32 // per bucket entry, the rows of the two factors
	val        []float64
	buf        *[]float64 // the unfolding's array, shared by Projectors
}

// NewProjector buckets the entries of f for its mode-n projected
// unfoldings (mode 1, 2 or 3).
func NewProjector(f *Sparse3, mode int) *Projector {
	return newProjector(f, mode, new([]float64))
}

// Projectors returns the projectors of the three modes of f. They write
// their unfoldings to one shared array, grown to the largest, so a
// decomposition — which is done with one mode's unfolding before it asks
// for the next — holds one unfolding at a time: each Unfold through any
// of them overwrites the last.
func Projectors(f *Sparse3) [3]*Projector {
	buf := new([]float64)
	return [3]*Projector{newProjector(f, 1, buf), newProjector(f, 2, buf), newProjector(f, 3, buf)}
}

func newProjector(f *Sparse3, mode int, buf *[]float64) *Projector {
	i1, i2, i3 := f.Dims()
	p := &Projector{leaf: mat.NativeLeaf(), mode: mode, buf: buf}
	var rowOf func(Entry) (row, ia, ib int)
	switch mode {
	case 1:
		p.rows, p.dimA, p.dimB = i1, i2, i3
		rowOf = func(e Entry) (int, int, int) { return e.I, e.J, e.K }
	case 2:
		p.rows, p.dimA, p.dimB = i2, i1, i3
		rowOf = func(e Entry) (int, int, int) { return e.J, e.I, e.K }
	case 3:
		p.rows, p.dimA, p.dimB = i3, i1, i2
		rowOf = func(e Entry) (int, int, int) { return e.K, e.I, e.J }
	default:
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	entries := f.Entries()
	p.starts = make([]int, p.rows+1)
	for _, e := range entries {
		r, _, _ := rowOf(e)
		p.starts[r+1]++
	}
	for r := range p.rows {
		p.starts[r+1] += p.starts[r]
	}
	p.ia, p.ib = make([]int32, len(entries)), make([]int32, len(entries))
	p.val = make([]float64, len(entries))
	fill := append([]int(nil), p.starts[:p.rows]...)
	for _, e := range entries {
		r, ia, ib := rowOf(e)
		n := fill[r]
		p.ia[n], p.ib[n], p.val[n] = int32(ia), int32(ib), e.V
		fill[r]++
	}
	return p
}

// Unfold returns the mode-n projected unfolding for the factors ya and
// yb of the other two modes, in ProjectedUnfold's layout, computed on at
// most workers goroutines (0 = one per logical CPU). Workers own
// disjoint row ranges and each row adds its entries in storage order,
// so the unfolding is bit-identical for every worker count. The matrix
// is backed by p's array: the next Unfold overwrites it.
func (p *Projector) Unfold(ya, yb *mat.Matrix, workers int) *mat.Matrix {
	if ya.Rows() != p.dimA || yb.Rows() != p.dimB {
		panic(fmt.Sprintf("tensor: mode-%d projection factors have %d and %d rows, want %d and %d",
			p.mode, ya.Rows(), yb.Rows(), p.dimA, p.dimB))
	}
	ca, cb := ya.Cols(), yb.Cols()
	cols := ca * cb
	if cap(*p.buf) < p.rows*cols {
		*p.buf = make([]float64, p.rows*cols)
	}
	w, da, db := (*p.buf)[:p.rows*cols], ya.Data(), yb.Data()
	parallelRows(p.starts, len(p.val)*cols, workers, func(lo, hi int) {
		term := func(n int) mat.OuterTerm {
			a, b := int(p.ia[n])*ca, int(p.ib[n])*cb
			return mat.OuterTerm{V: p.val[n], A: da[a : a+ca], B: db[b : b+cb]}
		}
		for r := lo; r < hi; r++ {
			dst := w[r*cols : (r+1)*cols]
			clear(dst)
			n, end := p.starts[r], p.starts[r+1]
			for ; n+4 <= end; n += 4 {
				p.leaf.AccumOuter4(dst, &[4]mat.OuterTerm{term(n), term(n + 1), term(n + 2), term(n + 3)})
			}
			for ; n < end; n++ {
				t := term(n)
				accumOuter(dst, t.V, t.A, t.B)
			}
		}
	})
	return mat.FromData(p.rows, cols, w)
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
			seg[b] += float64(s * vb)
		}
	}
}

// Core computes the Tucker core S = F ×₁ Y⁽¹⁾ᵀ ×₂ Y⁽²⁾ᵀ ×₃ Y⁽³⁾ᵀ
// (Equation 16) from the sparse tensor and the three factor matrices
// (Y⁽ⁿ⁾ is I_n×J_n). It computes the mode-1 projected unfolding first and
// then contracts mode 1, so the full projected tensor in original
// coordinates is never formed.
func Core(f *Sparse3, y1, y2, y3 *mat.Matrix) *Dense3 {
	return NewProjector(f, 1).Core(y1, y2, y3, 0)
}

// Core is the package-level Core through p, which must project mode 1,
// with an explicit bound on the worker pool used for the unfolding product
// and the mode-1 contraction (0 = one worker per logical CPU, 1 = serial).
// The core is bit-identical for every worker count and never aliases p.
func (p *Projector) Core(y1, y2, y3 *mat.Matrix, workers int) *Dense3 {
	if p.mode != 1 {
		panic(fmt.Sprintf("tensor: the core needs the mode-1 projector, not mode %d", p.mode))
	}
	checkFactor("core", y1, p.rows)
	w := p.Unfold(y2, y3, workers)        // I1 × (J2·J3)
	s1 := mat.TMulWorkers(y1, w, workers) // J1 × (J2·J3)
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
