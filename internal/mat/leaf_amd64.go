//go:build !purego

package mat

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2, CPUID leaf 7 AVX2).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly leaves below trust their arguments. Each Go wrapper
// indexes the furthest element its leaf reads or writes first, so a bad
// shape panics here instead of touching memory outside a slice.

// tile4x8AVX2 is the assembly tile: n steps of k, the four left rows at
// a0…a3 advancing ks elements a step, the panel eight elements a step.
//
//go:noescape
func tile4x8AVX2(n, ks int, a0, a1, a2, a3, panel *float64, out *[tileRows * tileCols]float64)

// tileAVX2 is the AVX2 leaf behind Leaf.tile's signature.
func tileAVX2(a *[tileRows][]float64, ks int, panel []float64, out *[tileRows * tileCols]float64) {
	n := len(panel) / tileCols
	if n == 0 {
		*out = [tileRows * tileCols]float64{}
		return
	}
	last := (n - 1) * ks
	_, _, _, _ = a[0][last], a[1][last], a[2][last], a[3][last]
	tile4x8AVX2(n, ks, &a[0][0], &a[1][0], &a[2][0], &a[3][0], &panel[0], out)
}

// sparseRowsAVX2Asm sets, for each of rows rows, the w elements at
// out + r·outStride (w a multiple of 4) to 0 + val[n]·xₙ + … over the
// entries n from starts[r] to starts[r+1]−1, xₙ the w elements at
// in + src[n]·inStride.
//
//go:noescape
func sparseRowsAVX2Asm(out *float64, outStride, w int, starts *int, rows int, src *int32, val, in *float64, inStride int)

// sparseRowsAVX2 is the AVX2 leaf behind Leaf.SparseRows, for a width
// that is a multiple of 4 and at least one entry.
func sparseRowsAVX2(out []float64, outStride, w int, starts []int, src []int32, val []float64, in []float64, inStride int) {
	if outStride < 0 || inStride < 0 {
		panic("mat: negative row stride")
	}
	rows := len(starts) - 1
	first, end := starts[0], starts[rows]
	for r, n := range starts[1:] {
		if n < starts[r] {
			panic("mat: row starts decrease")
		}
	}
	_ = val[first:end]
	var hi uint32
	for _, s := range src[first:end] {
		hi = max(hi, uint32(s)) // a negative index becomes a huge one
	}
	_ = in[int(hi)*inStride+w-1]
	_ = out[(rows-1)*outStride+w-1]
	sparseRowsAVX2Asm(&out[0], outStride, w, &starts[0], rows, &src[0], &val[0], &in[0], inStride)
}

// outer4AVX2Asm updates segs segments of w elements (w a multiple of 4),
// segment a at dst + a·stride with the four scales at scales + 4a, to
// d + s₀·rb0 + s₁·rb1 + s₂·rb2 + s₃·rb3 element by element.
//
//go:noescape
func outer4AVX2Asm(dst *float64, stride, w, segs int, scales *[4]float64, rb0, rb1, rb2, rb3 *float64)

// outer4AVX2 is the AVX2 leaf behind outer4Run: segments lo…hi−1
// of dst, nb elements apart, over their first w elements (a multiple of
// 4, not above nb).
func outer4AVX2(dst []float64, nb, w, lo, hi int, scales [][4]float64, rb *[4][]float64) {
	_ = dst[(hi-1)*nb+w-1]
	_ = scales[hi-1]
	_, _, _, _ = rb[0][w-1], rb[1][w-1], rb[2][w-1], rb[3][w-1]
	outer4AVX2Asm(&dst[lo*nb], nb, w, hi-lo, &scales[lo], &rb[0][0], &rb[1][0], &rb[2][0], &rb[3][0])
}

// substitute16AVX2Asm runs the forward substitution x ← x·R⁻¹ on the 16
// rows interleaved k-major at buf (element k of row r at buf[16k+r]),
// with rt the n×n lower-triangular Rᵀ.
//
//go:noescape
func substitute16AVX2Asm(buf, rt *float64, n int)

// interleave16AVX2Asm copies elements k < n4 (a multiple of 4) of the
// sixteen n-element rows at rows to buf, element k of row r to
// buf[16k+r]; deinterleave16AVX2Asm copies them back.
//
//go:noescape
func interleave16AVX2Asm(buf, rows *float64, n, n4 int)

//go:noescape
func deinterleave16AVX2Asm(rows, buf *float64, n, n4 int)

// substitute16AVX2 is the AVX2 leaf of orthoScratch.substitute: it
// interleaves the sixteen n-element rows into buf, solves them together
// and copies the solutions back. The elements past the last multiple of
// four move in Go.
func substitute16AVX2(rows, buf, rt []float64, n int) {
	_, _, _ = rows[substituteRows*n-1], buf[substituteRows*n-1], rt[n*n-1]
	n4 := n &^ 3
	interleave16AVX2Asm(&buf[0], &rows[0], n, n4)
	for k := n4; k < n; k++ {
		for r := range substituteRows {
			buf[k*substituteRows+r] = rows[r*n+k]
		}
	}
	substitute16AVX2Asm(&buf[0], &rt[0], n)
	deinterleave16AVX2Asm(&rows[0], &buf[0], n, n4)
	for k := n4; k < n; k++ {
		for r := range substituteRows {
			rows[r*n+k] = buf[k*substituteRows+r]
		}
	}
}
