package tensor

import (
	"fmt"

	"repro/internal/mat"
)

// UnfoldingGram returns the Gram matrix of the mode-n unfolding,
// G = F₍ₙ₎·F₍ₙ₎ᵀ, as a symmetric mat.Operator whose block apply costs
// O(nnz·b) per product. This lets HOSVD initialization extract leading
// singular vectors of the raw unfoldings without ever materializing them
// (the mode-2 unfolding of the Last.fm-scale tensor would have ~10⁷
// columns).
//
// A fiber is a column of the unfolding: the entries that agree in the
// two indices other than mode. The operator numbers the nonempty fibers
// and keeps the entries in two orders, grouped by fiber and grouped by
// mode-n index, each group in storage order. G·Q is then two sparse
// products, S = F₍ₙ₎ᵀ·Q into a scratch with one row per nonempty fiber
// and Z = F₍ₙ₎·S, and in each a worker owns whole output rows and sums
// them in storage order — the sums a serial pass over the entries
// makes, on every worker count.
func UnfoldingGram(f *Sparse3, mode int) mat.Operator {
	i1, i2, i3 := f.Dims()
	var dim int
	var split func(Entry) (row, fiber int)
	switch mode {
	case 1:
		dim = i1
		split = func(e Entry) (int, int) { return e.I, e.J*i3 + e.K }
	case 2:
		dim = i2
		split = func(e Entry) (int, int) { return e.J, e.I*i3 + e.K }
	case 3:
		dim = i3
		split = func(e Entry) (int, int) { return e.K, e.I*i2 + e.J }
	default:
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	entries := f.Entries()
	rows := make([]int32, len(entries))
	fibers := make([]int32, len(entries))
	vals := make([]float64, len(entries))
	fiberID := make(map[int]int32, len(entries))
	for n, e := range entries {
		row, fiber := split(e)
		id, ok := fiberID[fiber]
		if !ok {
			id = int32(len(fiberID))
			fiberID[fiber] = id
		}
		rows[n], fibers[n], vals[n] = int32(row), id, e.V
	}
	return &unfoldGramOp{
		dim:     dim,
		leaf:    mat.NativeLeaf(),
		byFiber: groupEntries(len(fiberID), fibers, rows, vals),
		byRow:   groupEntries(dim, rows, fibers, vals),
	}
}

// gramPanel is the widest slice of the block one pass handles. The fiber
// scratch is one panel wide, so its size is set by the tensor and not by
// the block; 32 columns keep a scratch row within four cache lines.
const gramPanel = 32

type unfoldGramOp struct {
	dim            int
	leaf           mat.Leaf
	byFiber, byRow grouped
	scratch        []float64 // fibers × min(b, gramPanel), row-major
}

func (o *unfoldGramOp) Dim() int { return o.dim }

// ApplyBlock computes z = F₍ₙ₎·(F₍ₙ₎ᵀ·q), one column panel at a time.
func (o *unfoldGramOp) ApplyBlock(q, z *mat.Matrix, workers int) {
	_, b := q.Dims()
	fibers := o.byFiber.groups()
	width := min(b, gramPanel)
	if cap(o.scratch) < fibers*width {
		o.scratch = make([]float64, fibers*width)
	}
	for lo := 0; lo < b; lo += width {
		w := min(width, b-lo)
		s := panel{data: o.scratch[:fibers*w], stride: w, w: w}
		o.byFiber.multiply(o.leaf, s, panel{data: q.Data(), stride: b, lo: lo, w: w}, workers)
		o.byRow.multiply(o.leaf, panel{data: z.Data(), stride: b, lo: lo, w: w}, s, workers)
	}
}

// panel is columns [lo, lo+w) of a row-major matrix with stride values
// per row.
type panel struct {
	data          []float64
	stride, lo, w int
}

func (p panel) row(r int) []float64 { return p.data[r*p.stride+p.lo:][:p.w] }

// grouped is a sparse matrix in compressed-row form: group g owns
// entries starts[g]..starts[g+1], each a value and the index of the
// input row it multiplies.
type grouped struct {
	starts []int
	src    []int32
	val    []float64
}

func (g grouped) groups() int { return len(g.starts) - 1 }

// groupEntries buckets the entries by key with a stable counting sort,
// so each group keeps them in the order they came in.
func groupEntries(groups int, key, src []int32, val []float64) grouped {
	g := grouped{
		starts: make([]int, groups+1),
		src:    make([]int32, len(key)),
		val:    make([]float64, len(key)),
	}
	for _, k := range key {
		g.starts[k+1]++
	}
	for k := range groups {
		g.starts[k+1] += g.starts[k]
	}
	fill := append([]int(nil), g.starts[:groups]...)
	for n, k := range key {
		g.src[fill[k]], g.val[fill[k]] = src[n], val[n]
		fill[k]++
	}
	return g
}

// multiply overwrites out with the product of g and in: row r of out
// becomes 0 + v₀·in[s₀] + v₁·in[s₁] + … over group r's entries in order,
// through leaf lf's SparseRows.
func (g grouped) multiply(lf mat.Leaf, out, in panel, workers int) {
	parallelRows(g.starts, len(g.src)*out.w, workers, func(first, last int) {
		if first < last {
			lf.SparseRows(out.data[first*out.stride+out.lo:], out.stride, out.w,
				g.starts[first:last+1], g.src, g.val, in.data[in.lo:], in.stride)
		}
	})
}
