// Package tensor implements dense and sparse third-order tensors together
// with the multilinear kernels CubeLSI needs: mode-n unfoldings, n-mode
// products by matrices, projected unfoldings computed directly from sparse
// coordinate data, and Frobenius norms. The two sparse kernels under a
// decomposition — ProjectedUnfoldWorkers and the block apply of
// UnfoldingGram — bucket the entries by output row and sum each row in
// storage order, several terms per pass, so their results are
// bit-identical to a serial pass over the entries on every worker count.
//
// Dimension convention follows the paper: mode 1 indexes users, mode 2
// indexes tags, and mode 3 indexes resources, so a tag assignment
// (u, t, r) ∈ Y becomes the entry F[u, t, r] = 1 of
// F ∈ {0,1}^{|U|×|T|×|R|} (Equation 5).
package tensor

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one stored value of a sparse third-order tensor.
type Entry struct {
	I, J, K int // mode-1, mode-2, mode-3 indices
	V       float64
}

// Sparse3 is a third-order sparse tensor in coordinate (COO) format with
// entries kept sorted lexicographically by (I, J, K) and deduplicated
// (duplicate coordinates are summed on Build).
type Sparse3 struct {
	i1, i2, i3 int
	entries    []Entry
}

// NewSparse3 returns an empty sparse tensor with the given dimensions.
func NewSparse3(i1, i2, i3 int) *Sparse3 {
	if i1 < 0 || i2 < 0 || i3 < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d×%d", i1, i2, i3))
	}
	return &Sparse3{i1: i1, i2: i2, i3: i3}
}

// Append adds an entry without sorting or deduplication. Build must be
// called before the tensor is used for computation.
func (s *Sparse3) Append(i, j, k int, v float64) {
	if i < 0 || i >= s.i1 || j < 0 || j >= s.i2 || k < 0 || k >= s.i3 {
		panic(fmt.Sprintf("tensor: entry (%d,%d,%d) out of bounds %d×%d×%d", i, j, k, s.i1, s.i2, s.i3))
	}
	s.entries = append(s.entries, Entry{I: i, J: j, K: k, V: v})
}

// Build sorts the entries, sums duplicates, and drops explicit zeros.
// It must be called after the final Append and before any computation.
func (s *Sparse3) Build() {
	if len(s.entries) == 0 {
		return
	}
	sort.Slice(s.entries, func(a, b int) bool {
		ea, eb := s.entries[a], s.entries[b]
		if ea.I != eb.I {
			return ea.I < eb.I
		}
		if ea.J != eb.J {
			return ea.J < eb.J
		}
		return ea.K < eb.K
	})
	out := s.entries[:0]
	for _, e := range s.entries {
		if n := len(out); n > 0 && out[n-1].I == e.I && out[n-1].J == e.J && out[n-1].K == e.K {
			out[n-1].V += e.V
			continue
		}
		out = append(out, e)
	}
	// Drop zeros produced by cancellation.
	final := out[:0]
	for _, e := range out {
		if e.V != 0 {
			final = append(final, e)
		}
	}
	s.entries = final
}

// Dims returns the three dimensions (I1, I2, I3).
func (s *Sparse3) Dims() (int, int, int) { return s.i1, s.i2, s.i3 }

// NNZ returns the number of stored nonzero entries.
func (s *Sparse3) NNZ() int { return len(s.entries) }

// Entries returns the underlying entry slice (sorted after Build).
// Callers must not mutate it.
func (s *Sparse3) Entries() []Entry { return s.entries }

// At returns the value at (i, j, k) by binary search.
func (s *Sparse3) At(i, j, k int) float64 {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		e := s.entries[mid]
		if e.I < i || (e.I == i && (e.J < j || (e.J == j && e.K < k))) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.entries) {
		e := s.entries[lo]
		if e.I == i && e.J == j && e.K == k {
			return e.V
		}
	}
	return 0
}

// FrobNorm returns the Frobenius norm (Equation 15) of the tensor.
func (s *Sparse3) FrobNorm() float64 {
	var ss float64
	for _, e := range s.entries {
		ss += e.V * e.V
	}
	return math.Sqrt(ss)
}

// Dense materializes the tensor as a Dense3. Intended only for small
// tensors (tests and the paper's running example).
func (s *Sparse3) Dense() *Dense3 {
	d := NewDense3(s.i1, s.i2, s.i3)
	for _, e := range s.entries {
		d.Set(e.I, e.J, e.K, e.V)
	}
	return d
}

// SliceMode2 extracts the frontal slice F[:, j, :] for a fixed mode-2
// index (a tag) as a dense I1×I3 row-major matrix, the tag's
// user–resource feature matrix from Section IV-A.
func (s *Sparse3) SliceMode2(j int) [][]float64 {
	out := make([][]float64, s.i1)
	for i := range out {
		out[i] = make([]float64, s.i3)
	}
	for _, e := range s.entries {
		if e.J == j {
			out[e.I][e.K] = e.V
		}
	}
	return out
}

// SliceMode2Entries returns the entries of the frontal slice F[:, j, :]
// as (user, resource, value) triples without materializing the matrix.
func (s *Sparse3) SliceMode2Entries(j int) []Entry {
	var out []Entry
	for _, e := range s.entries {
		if e.J == j {
			out = append(out, e)
		}
	}
	return out
}

// SliceDistanceMode2 computes ||F[:,a,:] − F[:,b,:]||_F directly from the
// sparse entries (used by the CubeSim baseline, Section VI-B) in
// O(nnz(a) + nnz(b)) time.
func (s *Sparse3) SliceDistanceMode2(a, b int) float64 {
	ea := s.SliceMode2Entries(a)
	eb := s.SliceMode2Entries(b)
	var ss float64
	x, y := 0, 0
	less := func(p, q Entry) bool {
		if p.I != q.I {
			return p.I < q.I
		}
		return p.K < q.K
	}
	for x < len(ea) && y < len(eb) {
		switch {
		case less(ea[x], eb[y]):
			ss += ea[x].V * ea[x].V
			x++
		case less(eb[y], ea[x]):
			ss += eb[y].V * eb[y].V
			y++
		default:
			d := ea[x].V - eb[y].V
			ss += d * d
			x++
			y++
		}
	}
	for ; x < len(ea); x++ {
		ss += ea[x].V * ea[x].V
	}
	for ; y < len(eb); y++ {
		ss += eb[y].V * eb[y].V
	}
	return math.Sqrt(ss)
}

// Mode2SliceIndex precomputes, for every mode-2 index, the list of its
// slice entries. It turns repeated SliceMode2Entries scans (quadratic in
// the all-pairs distance computation) into a single pass.
func (s *Sparse3) Mode2SliceIndex() [][]Entry {
	idx := make([][]Entry, s.i2)
	for _, e := range s.entries {
		idx[e.J] = append(idx[e.J], e)
	}
	for j := range idx {
		es := idx[j]
		sort.Slice(es, func(a, b int) bool {
			if es[a].I != es[b].I {
				return es[a].I < es[b].I
			}
			return es[a].K < es[b].K
		})
	}
	return idx
}

// SliceDistanceFromIndex computes ||F[:,a,:] − F[:,b,:]||_F given a
// precomputed Mode2SliceIndex.
func SliceDistanceFromIndex(idx [][]Entry, a, b int) float64 {
	ea, eb := idx[a], idx[b]
	var ss float64
	x, y := 0, 0
	less := func(p, q Entry) bool {
		if p.I != q.I {
			return p.I < q.I
		}
		return p.K < q.K
	}
	for x < len(ea) && y < len(eb) {
		switch {
		case less(ea[x], eb[y]):
			ss += ea[x].V * ea[x].V
			x++
		case less(eb[y], ea[x]):
			ss += eb[y].V * eb[y].V
			y++
		default:
			d := ea[x].V - eb[y].V
			ss += d * d
			x++
			y++
		}
	}
	for ; x < len(ea); x++ {
		ss += ea[x].V * ea[x].V
	}
	for ; y < len(eb); y++ {
		ss += eb[y].V * eb[y].V
	}
	return math.Sqrt(ss)
}
