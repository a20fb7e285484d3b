package mat

import (
	"fmt"
	"math"
	"slices"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// dot4 returns the inner products of a with b0, b1, b2 and b3. Each sum
// is accumulated left to right exactly as Dot accumulates it, so every
// result has Dot's bits; the four chains are independent, which lets the
// loop run at the multiplier's throughput where Dot waits on the latency
// of its one add chain.
func dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// dot4Nonzero is dot4 without the terms in which a is zero: the sums the
// matrix products make, which skip a zero left factor instead of adding
// 0·b (NaN for an infinite b).
func dot4Nonzero(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		if v == 0 {
			continue
		}
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// dotNonzero is Dot without the terms in which x is zero.
func dotNonzero(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		if v == 0 {
			continue
		}
		s += v * y[i]
	}
	return s
}

// dotRows sets dst[j] to the inner product of a with row j of b for every
// j in [lo, hi), four rows of b per pass over a: Dot's sum, or with
// skipZero dotNonzero's.
func dotRows(dst, a []float64, b *Matrix, lo, hi int, skipZero bool) {
	// Without a zero in a there is nothing to skip, and one scan of a
	// spares every pass over it the per-term test.
	skipZero = skipZero && slices.Contains(a, 0)
	n := b.cols
	j := lo
	for ; j+4 <= hi; j += 4 {
		rows := b.data[j*n : (j+4)*n]
		b0, b1, b2, b3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
		if skipZero {
			dst[j], dst[j+1], dst[j+2], dst[j+3] = dot4Nonzero(a, b0, b1, b2, b3)
		} else {
			dst[j], dst[j+1], dst[j+2], dst[j+3] = dot4(a, b0, b1, b2, b3)
		}
	}
	for ; j < hi; j++ {
		if skipZero {
			dst[j] = dotNonzero(a, b.data[j*n:(j+1)*n])
		} else {
			dst[j] = Dot(a, b.data[j*n:(j+1)*n])
		}
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large magnitudes via scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the max-abs norm of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n > 0 {
		ScaleVec(1/n, x)
	}
	return n
}

// SubVec returns x−y as a new vector.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	z := make([]float64, len(x))
	for i := range x {
		z[i] = x[i] - y[i]
	}
	return z
}

// CosineSim returns the cosine similarity of x and y, or 0 when either
// vector is all zero.
func CosineSim(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}
