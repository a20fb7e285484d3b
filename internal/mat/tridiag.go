package mat

import (
	"fmt"
	"math"
)

// SymEigTridiag computes the full eigendecomposition of a symmetric matrix
// by Householder tridiagonalization followed by the implicit-shift QL
// algorithm (the classic tred2/tql2 pair). It is substantially faster than
// the Jacobi method for matrices beyond a couple hundred rows and is used
// by spectral clustering when all eigenvalues are needed (for example to
// choose k by eigenvalue mass).
func SymEigTridiag(a *Matrix) *Eigen {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("mat: SymEigTridiag requires square matrix, got %d×%d", n, c))
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: New(0, 0)}
	}
	// z holds the accumulating transformation; d and e the diagonal and
	// off-diagonal of the tridiagonal form.
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	tql2(z, d, e)
	return sortEigen(d, z)
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form,
// accumulating the orthogonal transformation in z. On return d holds the
// diagonal and e the subdiagonal (e[0] unused). Adapted from the EISPACK
// routine as presented in Numerical Recipes / JAMA.
func tred2(z *Matrix, d, e []float64) {
	n, zd := z.rows, z.data
	for j := range n {
		d[j] = zd[(n-1)*n+j]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := range i {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := range i {
				d[j] = zd[(i-1)*n+j]
				zd[i*n+j] = 0
				zd[j*n+i] = 0
			}
		} else {
			for k := range i {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := range i {
				e[j] = 0
			}
			for j := range i {
				f = d[j]
				zd[j*n+i] = f
				g = e[j] + zd[j*n+j]*f
				for k := j + 1; k <= i-1; k++ {
					g += zd[k*n+j] * d[k]
					e[k] += zd[k*n+j] * f
				}
				e[j] = g
			}
			f = 0
			for j := range i {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := range i {
				e[j] -= hh * d[j]
			}
			for j := range i {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					zd[k*n+j] = zd[k*n+j] - (f*e[k] + g*d[k])
				}
				d[j] = zd[(i-1)*n+j]
				zd[i*n+j] = 0
			}
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		zd[(n-1)*n+i] = zd[i*n+i]
		zd[i*n+i] = 1
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = zd[k*n+i+1] / h
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += zd[k*n+i+1] * zd[k*n+j]
				}
				for k := 0; k <= i; k++ {
					zd[k*n+j] = zd[k*n+j] - g*d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			zd[k*n+i+1] = 0
		}
	}
	for j := range n {
		d[j] = zd[(n-1)*n+j]
		zd[(n-1)*n+j] = 0
	}
	zd[(n-1)*n+n-1] = 1
	e[0] = 0
}

// tql2 computes the eigensystem of a symmetric tridiagonal matrix given by
// diagonal d and subdiagonal e (e[0] unused), with eigenvectors accumulated
// into z (which must contain the tred2 transformation on entry).
func tql2(z *Matrix, d, e []float64) {
	n, zd := z.rows, z.data
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Nextafter(1, 2) - 1
	for l := range n {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 64 {
					panic("mat: tql2 failed to converge")
				}
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				p = d[m]
				c := 1.0
				c2, c3 := c, c
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					for k := range n {
						h = zd[k*n+i+1]
						zd[k*n+i+1] = s*zd[k*n+i] + c*h
						zd[k*n+i] = c*zd[k*n+i] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
}
