package mat

import (
	"fmt"
	"math"
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
