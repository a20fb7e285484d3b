package mat

// This file holds the two row kernels of the decompose's sparse side,
// which the tensor package calls: a row of a compressed-row product
// (the sparse HOSVD operator's apply) and the four-entry update of a row
// of a projected unfolding. Like the tiles, their leaves put different
// output elements in different SIMD lanes and add each element's terms
// left to right, a rounded product at a time, so every element keeps the
// bits of the one-element-at-a-time loop whichever leaf computes it.

// SparseRows overwrites the rows of out with those of a compressed-row
// product. Row r of out, out[r·outStride:][:w] for r < len(starts)−1,
// becomes 0 + val[n]·in[src[n]·inStride:][:w] + … over the entries n
// from starts[r] to starts[r+1]−1, summed left to right in entry order.
// The AVX2 leaf takes the widest multiple of four elements of every row,
// the portable one the rest.
func (l Leaf) SparseRows(out []float64, outStride, w int, starts []int, src []int32, val []float64, in []float64, inStride int) {
	rows := len(starts) - 1
	if rows <= 0 || w <= 0 {
		return
	}
	w4 := 0
	if l == LeafAVX2 && starts[rows] > starts[0] {
		w4 = w &^ 3
		if w4 > 0 {
			sparseRowsAVX2(out, outStride, w4, starts, src, val, in, inStride)
		}
	}
	if w4 == w {
		return
	}
	for r := range rows {
		n, end := starts[r], starts[r+1]
		rowSumPortable(out[r*outStride+w4:r*outStride+w], val[n:end], src[n:end], in[w4:], inStride)
	}
}

// rowSumPortable is the Go leaf: two entries per pass over dst, where
// d + v₀x₀ + v₁x₁ is evaluated left to right, the order two passes would
// add in. The explicit float64 conversions round each product before it
// is added, so a compiler that may fuse x*y + z does not.
func rowSumPortable(dst, val []float64, src []int32, in []float64, stride int) {
	clear(dst)
	if len(dst) == 0 {
		return
	}
	src = src[:len(val)]
	n := 0
	for ; n+2 <= len(val); n += 2 {
		v0, v1 := val[n], val[n+1]
		x0, x1 := in[int(src[n])*stride:][:len(dst)], in[int(src[n+1])*stride:][:len(dst)]
		for j, d := range dst {
			dst[j] = d + float64(v0*x0[j]) + float64(v1*x1[j])
		}
	}
	if n < len(val) {
		v, x := val[n], in[int(src[n])*stride:][:len(dst)]
		for j := range dst {
			dst[j] += float64(v * x[j])
		}
	}
}

// OuterTerm is one sparse entry's contribution V·(A ⊗ B) to a flattened
// row: element a·len(B)+b of the row gains V·A[a]·B[b].
type OuterTerm struct {
	V    float64
	A, B []float64
}

// outerChunk is how many segments' scales AccumOuter4 holds at a time.
const outerChunk = 16

// AccumOuter4 adds four terms, all of the shape of t[0], to the
// flattened row dst, leaving in every element the bits four one-term
// updates in the same order would. A one-term update adds the rounded
// scale s = V·A[a] times B to segment a of the row and skips a segment
// whose scale is zero; so a segment becomes d + s₀B₀ + s₁B₁ + s₂B₂ + s₃B₃,
// evaluated left to right, unless some sᵢ is zero, and then it takes the
// terms one at a time, leaving out those with a zero scale.
func (l Leaf) AccumOuter4(dst []float64, t *[4]OuterTerm) {
	na, nb := len(t[0].A), len(t[0].B)
	v0, v1, v2, v3 := t[0].V, t[1].V, t[2].V, t[3].V
	ra0, ra1, ra2, ra3 := t[0].A, t[1].A[:na], t[2].A[:na], t[3].A[:na]
	rb := [4][]float64{t[0].B, t[1].B[:nb], t[2].B[:nb], t[3].B[:nb]}
	dst = dst[:na*nb]
	if l != LeafAVX2 {
		for a := range ra0 {
			s := [4]float64{v0 * ra0[a], v1 * ra1[a], v2 * ra2[a], v3 * ra3[a]}
			seg := dst[a*nb : (a+1)*nb]
			if s[0] == 0 || s[1] == 0 || s[2] == 0 || s[3] == 0 {
				outerTerms(seg, &s, &rb)
				continue
			}
			outer4Portable(seg, &s, &rb)
		}
		return
	}
	// Segments touch disjoint elements, so the runs of segments with four
	// nonzero scales go to the AVX2 leaf, and the segments between them
	// one term at a time, in any order.
	w := nb &^ 3
	var scales [outerChunk][4]float64
	for a0 := 0; a0 < na; a0 += outerChunk {
		chunk := dst[a0*nb:]
		n := min(outerChunk, na-a0)
		run := 0
		for i := range n {
			a := a0 + i
			s := [4]float64{v0 * ra0[a], v1 * ra1[a], v2 * ra2[a], v3 * ra3[a]}
			scales[i] = s
			if s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0 {
				continue
			}
			outer4Run(chunk, nb, w, run, i, scales[:], &rb)
			outerTerms(chunk[i*nb:(i+1)*nb], &s, &rb)
			run = i + 1
		}
		outer4Run(chunk, nb, w, run, n, scales[:], &rb)
	}
}

// outerTerms adds the four terms to seg one at a time, leaving out those
// whose scale is zero.
func outerTerms(seg []float64, s *[4]float64, rb *[4][]float64) {
	for x, sx := range s {
		if sx != 0 {
			for b, vb := range rb[x][:len(seg)] {
				seg[b] += float64(sx * vb)
			}
		}
	}
}

// outer4Portable is the portable leaf's segment update: element b of
// seg becomes seg[b] + s₀·rb0[b] + s₁·rb1[b] + s₂·rb2[b] + s₃·rb3[b],
// evaluated left to right, each product rounded before it is added.
func outer4Portable(seg []float64, s *[4]float64, rb *[4][]float64) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	rb0, rb1, rb2, rb3 := rb[0][:len(seg)], rb[1][:len(seg)], rb[2][:len(seg)], rb[3][:len(seg)]
	for b, d := range seg {
		seg[b] = d + float64(s0*rb0[b]) + float64(s1*rb1[b]) + float64(s2*rb2[b]) + float64(s3*rb3[b])
	}
}

// outer4Run updates segments lo…hi−1 of dst, nb elements apart, with
// their four scales: the AVX2 leaf over the first w elements of each, the
// portable leaf over the rest.
func outer4Run(dst []float64, nb, w, lo, hi int, scales [][4]float64, rb *[4][]float64) {
	if lo >= hi {
		return
	}
	if w > 0 {
		outer4AVX2(dst, nb, w, lo, hi, scales, rb)
	}
	if w == nb {
		return
	}
	tail := [4][]float64{rb[0][w:], rb[1][w:], rb[2][w:], rb[3][w:]}
	for a := lo; a < hi; a++ {
		outer4Portable(dst[a*nb+w:(a+1)*nb], &scales[a], &tail)
	}
}
