package mat

import "sync"

// This file is the one dense product under the decompose: c = a·bᵀ, every
// element the inner product of a row of a with a row of b. The right
// operand is packed once per call into panels of eight rows; a leaf then
// computes a 4×8 tile of c per pass over four rows of a and one panel.
// Each of the 32 sums is its own accumulator — SIMD lanes hold different
// output elements, never partial sums of one — and adds its terms left
// to right from +0, a rounded product at a time, exactly as Dot does. So
// every element keeps Dot's bits whichever leaf computes it.

// tileRows and tileCols are the leaf's tile: four rows of the left
// operand against one eight-row panel of the right.
const (
	tileRows = 4
	tileCols = 8
)

// leaf names a tile implementation. Both compute the same bits; the
// products use nativeLeaf, chosen once from the CPU the process runs on.
type leaf uint8

const (
	leafPortable leaf = iota // Go, on every platform
	leafAVX2                 // tile_amd64.s, unfused VMULPD + VADDPD
)

var nativeLeaf = func() leaf {
	if haveAVX2 {
		return leafAVX2
	}
	return leafPortable
}()

// tile sets out[8r+j] to the inner product of a[r] (strided by ks) with
// column j of panel — panel[8k+j] is the k-th element of panel row j —
// for r < 4 and j < 8. With skipZero the terms whose left factor is zero
// are left out, as the matrix products leave them out; only the portable
// leaf has that form.
func (l leaf) tile(a *[tileRows][]float64, ks int, panel []float64, out *[tileRows * tileCols]float64, skipZero bool) {
	if l == leafAVX2 && !skipZero {
		tileAVX2(a, ks, panel, out)
		return
	}
	tilePortable(a, ks, panel, out, skipZero)
}

// tilePortable is the Go leaf: two left rows against half a panel per
// pass, eight independent sums (a full panel row per left row spills on
// amd64). With skipZero it takes one left row at a time and leaves out
// the terms whose left factor is zero: the sums Mul, the Ritz products
// and the Cholesky-QR Gram make, which skip a zero instead of adding 0·b
// (NaN for an infinite b). The explicit float64 conversions round each
// product before it is added, which keeps a compiler that may fuse
// x*y + z (arm64, ppc64le, s390x) from doing so.
func tilePortable(a *[tileRows][]float64, ks int, panel []float64, out *[tileRows * tileCols]float64, skipZero bool) {
	for r := 0; r < tileRows; r += 2 {
		if skipZero {
			for t, x := range a[r : r+2] {
				o := out[tileCols*(r+t) : tileCols*(r+t+1)]
				o[0], o[1], o[2], o[3] = panelDot4Nonzero(x, ks, panel)
				o[4], o[5], o[6], o[7] = panelDot4Nonzero(x, ks, panel[4:])
			}
			continue
		}
		for h := 0; h < tileCols; h += 4 {
			panelDot2x4(a[r], a[r+1], ks, panel[h:], out[tileCols*r+h:tileCols*(r+1)+h+4])
		}
	}
}

// panelDot2x4 sets o[0:4] to the inner products of x, strided by ks, with
// four rows of a panel, whose k-th elements are p[8k…8k+3], and o[8:12]
// to those of y.
func panelDot2x4(x, y []float64, ks int, p []float64, o []float64) {
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for i := 0; len(p) >= 4; i += ks {
		u, v, q := x[i], y[i], p[:4:4]
		s0 += float64(u * q[0])
		t0 += float64(v * q[0])
		s1 += float64(u * q[1])
		t1 += float64(v * q[1])
		s2 += float64(u * q[2])
		t2 += float64(v * q[2])
		s3 += float64(u * q[3])
		t3 += float64(v * q[3])
		if len(p) < tileCols {
			break
		}
		p = p[tileCols:]
	}
	o = o[:tileCols+4]
	o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	o[8], o[9], o[10], o[11] = t0, t1, t2, t3
}

// panelDot4Nonzero returns the inner products of x, strided by ks, with
// four rows of a panel, whose k-th elements are p[8k…8k+3], without the
// terms in which x is zero.
func panelDot4Nonzero(x []float64, ks int, p []float64) (s0, s1, s2, s3 float64) {
	for i := 0; len(p) >= 4; i += ks {
		if u, q := x[i], p[:4:4]; u != 0 {
			s0 += float64(u * q[0])
			s1 += float64(u * q[1])
			s2 += float64(u * q[2])
			s3 += float64(u * q[3])
		}
		if len(p) < tileCols {
			break
		}
		p = p[tileCols:]
	}
	return s0, s1, s2, s3
}

// lhs is the left operand of a tiled product: rows × k elements, element
// (r, k) at data[r·rs + k·ks]. rowsOf reads a matrix's rows, colsOf its
// columns — the transpose, without forming it.
type lhs struct {
	data    []float64
	rows, k int
	rs, ks  int
}

func rowsOf(a *Matrix) lhs { return lhs{data: a.data, rows: a.rows, k: a.cols, rs: a.cols, ks: 1} }

func colsOf(a *Matrix) lhs { return lhs{data: a.data, rows: a.cols, k: a.rows, rs: 1, ks: a.cols} }

// group points rows[t] at row i+t of a, repeating the last row for a
// group that runs past it, and reports whether any of those rows holds a
// zero — the rows whose skipping sum differs from Dot's.
func (a lhs) group(i int, rows *[tileRows][]float64, checkZero bool) (hasZero bool) {
	span := (a.k-1)*a.ks + 1
	for t := range rows {
		r := min(i+t, a.rows-1)
		row := a.data[r*a.rs : r*a.rs+span]
		rows[t] = row
		if checkZero && !hasZero {
			for k := 0; k < len(row); k += a.ks {
				if row[k] == 0 {
					hasZero = true
					break
				}
			}
		}
	}
	return hasZero
}

// panels is the right operand of a tiled product packed for the leaf:
// rows × k elements in ⌈rows/8⌉ panels, panel p holding rows 8p…8p+7
// k-major (element (8p+j, k) at panel[8k+j]), the last one zero-padded.
// The buffer is kept between packs of the same or a smaller operand.
type panels struct {
	data    []float64
	rows, k int
}

// reset sizes p for a rows × k operand and returns its buffer.
func (p *panels) reset(rows, k int) []float64 {
	p.rows, p.k = rows, k
	size := (rows + tileCols - 1) / tileCols * tileCols * k
	if cap(p.data) < size {
		p.data = make([]float64, size)
	}
	p.data = p.data[:size]
	return p.data
}

// packRows packs b, whose rows are the operand's rows.
func (p *panels) packRows(b *Matrix) {
	dst := p.reset(b.rows, b.cols)
	k := b.cols
	for q := 0; q*tileCols < b.rows; q++ {
		panel := dst[q*tileCols*k : (q+1)*tileCols*k]
		for j := range tileCols {
			r := q*tileCols + j
			if r >= b.rows {
				for i := j; i < len(panel); i += tileCols {
					panel[i] = 0
				}
				continue
			}
			for kk, v := range b.data[r*k : (r+1)*k] {
				panel[kk*tileCols+j] = v
			}
		}
	}
}

// packCols packs bᵀ, the operand whose rows are b's columns: panel rows
// are column runs of b, so each k copies eight contiguous elements of
// row k of b.
func (p *panels) packCols(b *Matrix) {
	dst := p.reset(b.cols, b.rows)
	n := b.cols
	for q := 0; q*tileCols < n; q++ {
		panel := dst[q*tileCols*b.rows : (q+1)*tileCols*b.rows]
		j0 := q * tileCols
		w := min(tileCols, n-j0)
		for k := range b.rows {
			seg := panel[k*tileCols : (k+1)*tileCols]
			copy(seg, b.data[k*n+j0:k*n+j0+w])
			clear(seg[w:])
		}
	}
}

func (p *panels) panel(q int) []float64 {
	size := tileCols * p.k
	return p.data[q*size : (q+1)*size]
}

// tiledInto overwrites c with a·bᵀ through leaf lf: Dot's sum per
// element, or with skipZero the sum without the terms whose left factor
// is zero. Workers own disjoint groups of four output rows, so the result
// is bit-identical for every worker count.
func tiledInto(lf leaf, c *Matrix, a lhs, b *panels, workers int, skipZero bool) {
	if c.rows != a.rows || c.cols != b.rows || a.k != b.k {
		panic("mat: tiled product shape mismatch")
	}
	if a.k == 0 {
		clear(c.data)
		return
	}
	groups := (a.rows + tileRows - 1) / tileRows
	parallelForW(groups, a.rows*a.k*b.rows, workers, func(lo, hi int) {
		var rows [tileRows][]float64
		var out [tileRows * tileCols]float64
		for g := lo; g < hi; g++ {
			i0 := g * tileRows
			skip := a.group(i0, &rows, skipZero)
			for q := 0; q*tileCols < b.rows; q++ {
				lf.tile(&rows, a.ks, b.panel(q), &out, skip)
				j0 := q * tileCols
				w := min(tileCols, b.rows-j0)
				for t := range min(tileRows, a.rows-i0) {
					copy(c.data[(i0+t)*c.cols+j0:(i0+t)*c.cols+j0+w], out[t*tileCols:t*tileCols+w])
				}
			}
		}
	})
}

// tiledUpperInto overwrites the upper triangle of g — the elements on
// and above the diagonal, and no others — with that of a·bᵀ, where b is
// a packed (the Gram matrix of a's rows). Elements as tiledInto's.
func tiledUpperInto(lf leaf, g *Matrix, a lhs, b *panels, maxWorkers int, skipZero bool) {
	m := a.rows
	if g.rows != m || g.cols != m || b.rows != m || a.k != b.k {
		panic("mat: tiled Gram shape mismatch")
	}
	if a.k == 0 {
		for i := range m {
			clear(g.data[i*m+i : (i+1)*m])
		}
		return
	}
	groups := (m + tileRows - 1) / tileRows
	workers := 1
	if m*m*a.k/2 >= parallelThreshold {
		workers = min(Workers(maxWorkers), groups)
	}
	// Stride row groups by worker id: group i costs about (m−4i) outputs,
	// so striding interleaves cheap and expensive groups.
	run := func(w int) {
		var rows [tileRows][]float64
		var out [tileRows * tileCols]float64
		for grp := w; grp < groups; grp += workers {
			i0 := grp * tileRows
			skip := a.group(i0, &rows, skipZero)
			for q := i0 / tileCols; q*tileCols < m; q++ {
				lf.tile(&rows, a.ks, b.panel(q), &out, skip)
				j0 := q * tileCols
				for t := range min(tileRows, m-i0) {
					i := i0 + t
					lo := max(i, j0)
					hi := min(j0+tileCols, m)
					if lo < hi {
						copy(g.data[i*m+lo:i*m+hi], out[t*tileCols+lo-j0:t*tileCols+hi-j0])
					}
				}
			}
		}
	}
	if workers == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	wg.Wait()
}
