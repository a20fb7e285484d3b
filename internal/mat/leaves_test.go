package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file call every leaf of the sparse row kernels and
// of the Cholesky-QR substitution explicitly and hold each to the bits
// of the loop it replaced (reference_test.go). Widths run 0–9 and 31–33
// so the AVX2 leaves meet every remainder the portable leaf finishes;
// values include +0 and −0, infinities and NaN.

// defaultNaN is the NaN amd64 generates for 0·∞ and ∞−∞. Where two NaNs
// meet, the hardware keeps the payload of the first operand, and Go
// orders the operands of a commutative + or × as register allocation
// suits it; so the NaNs fed in are this one, and a sum that turns NaN
// has the same bits whichever operand came first.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// awkward returns a standard normal variate, or now and then one of the
// values a reordered or fused sum would get wrong: ±0, ±Inf, NaN.
func awkward(rng *rand.Rand) float64 {
	switch rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return defaultNaN
	}
	return rng.NormFloat64()
}

func awkwardFloats(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = awkward(rng)
	}
	return x
}

var leafWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33}

func TestSparseRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range leafWidths {
		for _, rows := range []int{1, 2, 7, 40} {
			for _, values := range []string{"normal", "awkward"} {
				// Groups of 0 to 5 entries, the empty ones included, over
				// an input of 9 rows padded to a wider stride and read
				// from an offset, as a column panel of a block is.
				starts := make([]int, rows+1)
				for r := range rows {
					starts[r+1] = starts[r] + rng.Intn(6)
				}
				nnz := starts[rows]
				const inRows = 9
				lo, inStride, outStride := rng.Intn(3), w+3, w+2
				src := make([]int32, nnz)
				for n := range src {
					src[n] = int32(rng.Intn(inRows))
				}
				val, in := awkwardFloats(rng, nnz), awkwardFloats(rng, inRows*inStride)
				if values == "normal" {
					for i := range val {
						val[i] = rng.NormFloat64()
					}
					for i := range in {
						in[i] = rng.NormFloat64()
					}
				}
				want := awkwardFloats(rng, rows*outStride)
				got := append([]float64(nil), want...)
				refSparseRows(want, outStride, w, starts, src, val, in[lo:], inStride)
				for _, lf := range Leaves() {
					out := append([]float64(nil), got...)
					lf.SparseRows(out, outStride, w, starts, src, val, in[lo:], inStride)
					requireSameFloats(t, fmt.Sprintf("w=%d rows=%d %s leaf=%s", w, rows, values, lf), out, want)
				}
			}
		}
	}
}

func TestAccumOuter4MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, nb := range leafWidths {
		// 17 and 40 segments cross the 16-segment chunk of scales.
		for _, na := range []int{0, 1, 3, 17, 40} {
			for _, values := range []string{"normal", "zero scales", "awkward"} {
				var terms [4]OuterTerm
				for i := range terms {
					terms[i] = OuterTerm{V: rng.NormFloat64(), A: make([]float64, na), B: make([]float64, nb)}
					for a := range terms[i].A {
						terms[i].A[a] = rng.NormFloat64()
					}
					for b := range terms[i].B {
						terms[i].B[b] = rng.NormFloat64()
					}
				}
				switch values {
				case "zero scales":
					// A zero V, and ±0 factors in some segments: their
					// terms are skipped, and the infinity each faces turns
					// a term that is added instead into NaN.
					terms[rng.Intn(4)].V = 0
					for i := range terms {
						for a := range terms[i].A {
							if rng.Intn(4) == 0 {
								terms[i].A[a] = math.Copysign(0, float64(rng.Intn(2)*2-1))
							}
						}
						if nb > 0 {
							terms[i].B[rng.Intn(nb)] = math.Inf(rng.Intn(2)*2 - 1)
						}
					}
				case "awkward":
					for i := range terms {
						terms[i].V = awkward(rng)
						terms[i].A, terms[i].B = awkwardFloats(rng, na), awkwardFloats(rng, nb)
					}
				}
				want := awkwardFloats(rng, na*nb)
				start := append([]float64(nil), want...)
				refAccumOuter4(want, terms)
				for _, lf := range Leaves() {
					got := append([]float64(nil), start...)
					lf.AccumOuter4(got, &terms)
					requireSameFloats(t, fmt.Sprintf("na=%d nb=%d %s leaf=%s", na, nb, values, lf), got, want)
				}
			}
		}
	}
}

// TestSubstituteMatchesReference runs the substitution on row counts
// that are not multiples of 16, widths on both sides of maxInterleave,
// and 1, 2 and GOMAXPROCS workers, with one scratch reused throughout
// as Cholesky-QR reuses it.
func TestSubstituteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var s orthoScratch
	for _, n := range []int{1, 2, 5, 16, 33, maxInterleave, maxInterleave + 1} {
		for _, m := range []int{1, 15, 16, 17, 37, 100} {
			for _, values := range []string{"normal", "awkward"} {
				a := randMatrix(rng, m, n)
				// Rᵀ with a positive diagonal, as Cholesky leaves it.
				rt := make([]float64, n*n)
				for j := range n {
					for k := range j {
						rt[j*n+k] = rng.NormFloat64()
					}
					rt[j*n+j] = 0.5 + rng.Float64()
				}
				if values == "awkward" {
					a.data = awkwardFloats(rng, m*n)
					for j := range n {
						for k := range j {
							if rng.Intn(8) == 0 {
								rt[j*n+k] = awkward(rng)
							}
						}
					}
				}
				want := a.Clone()
				refSubstitute(want, rt, 1)
				for _, lf := range Leaves() {
					for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
						got := a.Clone()
						s.substitute(lf, got, rt, workers)
						requireSameBits(t, fmt.Sprintf("%d×%d %s leaf=%s workers=%d", m, n, values, lf, workers), got, want)
					}
				}
			}
		}
	}
}
