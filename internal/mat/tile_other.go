//go:build !amd64

package mat

// haveAVX2 is false off amd64: the portable leaf computes every tile.
const haveAVX2 = false

func tileAVX2(a *[tileRows][]float64, ks int, panel []float64, out *[tileRows * tileCols]float64) {
	panic("mat: the AVX2 leaf exists only on amd64")
}
