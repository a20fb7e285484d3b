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

// tile4x8AVX2 is the assembly leaf: n steps of k, the four left rows at
// a0…a3 advancing ks elements a step, the panel eight elements a step.
//
//go:noescape
func tile4x8AVX2(n, ks int, a0, a1, a2, a3, panel *float64, out *[tileRows * tileCols]float64)

// tileAVX2 is the AVX2 leaf behind leaf.tile's signature.
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
