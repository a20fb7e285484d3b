//go:build !amd64 || purego

package mat

// haveAVX2 is false off amd64, and under the purego build tag: the
// portable leaves compute everything.
const haveAVX2 = false

func tileAVX2(a *[tileRows][]float64, ks int, panel []float64, out *[tileRows * tileCols]float64) {
	panic("mat: the AVX2 leaf exists only on amd64")
}

func sparseRowsAVX2(out []float64, outStride, w int, starts []int, src []int32, val []float64, in []float64, inStride int) {
	panic("mat: the AVX2 leaf exists only on amd64")
}

func outer4AVX2(dst []float64, nb, w, lo, hi int, scales [][4]float64, rb *[4][]float64) {
	panic("mat: the AVX2 leaf exists only on amd64")
}

func substitute16AVX2(rows, buf, rt []float64, n int) {
	panic("mat: the AVX2 leaf exists only on amd64")
}
