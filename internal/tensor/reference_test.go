package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// refUnfoldGramOp is the HOSVD operator as it stood before it was given a
// block apply, kept as the reference the block form is compared against
// bit for bit (without the scratch pool and semaphore that made it safe
// for concurrent applies): y = F₍ₙ₎·(F₍ₙ₎ᵀ·x) for one vector, in two passes
// over the entries in storage order through a dense scratch spanning the
// whole fiber space.
type refUnfoldGramOp struct {
	f       *Sparse3
	mode    int
	scratch []float64
	touched []int
}

func newRefUnfoldGramOp(f *Sparse3, mode int) *refUnfoldGramOp {
	i1, i2, i3 := f.Dims()
	scratchLen := map[int]int{1: i2 * i3, 2: i1 * i3, 3: i1 * i2}[mode]
	return &refUnfoldGramOp{f: f, mode: mode, scratch: make([]float64, scratchLen)}
}

func (o *refUnfoldGramOp) Apply(x, y []float64) {
	entries := o.f.Entries()
	_, i2, i3 := o.f.Dims()
	scratch := o.scratch
	o.touched = o.touched[:0]
	switch o.mode {
	case 1:
		for _, e := range entries {
			c := e.J*i3 + e.K
			if scratch[c] == 0 {
				o.touched = append(o.touched, c)
			}
			scratch[c] += e.V * x[e.I]
		}
		for i := range y {
			y[i] = 0
		}
		for _, e := range entries {
			y[e.I] += e.V * scratch[e.J*i3+e.K]
		}
	case 2:
		for _, e := range entries {
			c := e.I*i3 + e.K
			if scratch[c] == 0 {
				o.touched = append(o.touched, c)
			}
			scratch[c] += e.V * x[e.J]
		}
		for i := range y {
			y[i] = 0
		}
		for _, e := range entries {
			y[e.J] += e.V * scratch[e.I*i3+e.K]
		}
	case 3:
		for _, e := range entries {
			c := e.I*i2 + e.J
			if scratch[c] == 0 {
				o.touched = append(o.touched, c)
			}
			scratch[c] += e.V * x[e.K]
		}
		for i := range y {
			y[i] = 0
		}
		for _, e := range entries {
			y[e.K] += e.V * scratch[e.I*i2+e.J]
		}
	}
	for _, c := range o.touched {
		scratch[c] = 0
	}
}

// refProjectedUnfold is ProjectedUnfoldWorkers as it stood before four
// entries shared a pass over the output row: one accumOuter per entry,
// rows visited in storage order.
func refProjectedUnfold(f *Sparse3, mode int, ya, yb *mat.Matrix) *mat.Matrix {
	i1, i2, i3 := f.Dims()
	var rows int
	var rowOf func(Entry) (row, ia, ib int)
	switch mode {
	case 1:
		rows = i1
		rowOf = func(e Entry) (int, int, int) { return e.I, e.J, e.K }
	case 2:
		rows = i2
		rowOf = func(e Entry) (int, int, int) { return e.J, e.I, e.K }
	case 3:
		rows = i3
		rowOf = func(e Entry) (int, int, int) { return e.K, e.I, e.J }
	}
	w := mat.New(rows, ya.Cols()*yb.Cols())
	for _, e := range f.Entries() {
		r, ia, ib := rowOf(e)
		accumOuter(w.Row(r), e.V, ya.Row(ia), yb.Row(ib))
	}
	return w
}

func requireSameBits(t *testing.T, label string, got, want *mat.Matrix) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element (%d,%d) = %v, want %v", label, i/want.Cols(), i%want.Cols(), g[i], w[i])
		}
	}
}

type namedTensor struct {
	name string
	f    *Sparse3
}

// kernelTensors are the sparse inputs of the reference comparisons.
func kernelTensors(rng *rand.Rand) []namedTensor {
	// Appended and never built: unsorted, with repeated coordinates. The
	// kernels promise sums in storage order whatever that order is.
	unbuilt := NewSparse3(9, 11, 7)
	for range 400 {
		unbuilt.Append(rng.Intn(9), rng.Intn(11), rng.Intn(7), rng.NormFloat64())
	}
	// Index 0 of every mode is never used.
	gaps := NewSparse3(14, 10, 12)
	for range 300 {
		gaps.Append(1+rng.Intn(13), 1+rng.Intn(9), 1+rng.Intn(11), rng.NormFloat64())
	}
	gaps.Build()
	return []namedTensor{
		{"random", randSparse(rng, 40, 31, 53, 3000)}, // 3000 × a 32-wide panel crosses the parallel threshold
		{"unbuilt", unbuilt},
		{"gaps", gaps},
		{"single", randSparse(rng, 1, 1, 1, 1)},
		{"empty", NewSparse3(5, 4, 3)},
	}
}

var kernelWorkers = []int{0, 1, 2, 3, 4}

func TestUnfoldingGramMatchesColumnApply(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range kernelTensors(rng) {
		name, f := c.name, c.f
		for mode := 1; mode <= 3; mode++ {
			op := UnfoldingGram(f, mode)
			ref := newRefUnfoldGramOp(f, mode)
			n := op.Dim()
			// 33 and 70 cross gramPanel; n is a block as wide as the operator.
			for _, b := range []int{1, 3, 4, 8, 33, 70, n} {
				q := randomMatrix(rng, n, b)
				clear(q.Row(rng.Intn(n)))
				want := mat.New(n, b)
				y := make([]float64, n)
				for j := range b {
					ref.Apply(q.Col(j), y)
					want.SetCol(j, y)
				}
				for _, lf := range mat.Leaves() {
					op.(*unfoldGramOp).leaf = lf
					for _, workers := range kernelWorkers {
						z := randomMatrix(rng, n, b) // every element must be overwritten
						op.ApplyBlock(q, z, workers)
						requireSameBits(t, fmt.Sprintf("%s mode %d b=%d leaf=%s workers=%d", name, mode, b, lf, workers), z, want)
					}
				}
			}
		}
	}
}

// TestUnfoldingGramScratchIndependentOfBlockWidth pins the memory bound:
// the fiber scratch is one column panel wide, so a 32 times wider block
// applies through the same scratch.
func TestUnfoldingGramScratchIndependentOfBlockWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := NewSparse3(400, 60, 500)
	for range 170000 {
		f.Append(rng.Intn(400), rng.Intn(60), rng.Intn(500), 1)
	}
	f.Build()
	op := UnfoldingGram(f, 2).(*unfoldGramOp)
	fibers := op.byFiber.groups()
	if fibers < 100000 {
		t.Fatalf("only %d nonempty fibers, want a 10⁵-fiber tensor", fibers)
	}
	for _, b := range []int{8, 256} {
		q := randomMatrix(rng, 60, b)
		op.ApplyBlock(q, mat.New(60, b), 0)
		if got, limit := cap(op.scratch), fibers*gramPanel; got > limit {
			t.Fatalf("b=%d: scratch holds %d values, more than %d fibers × a %d-column panel", b, got, fibers, gramPanel)
		}
	}
}

func TestProjectedUnfoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range kernelTensors(rng) {
		name, f := c.name, c.f
		i1, i2, i3 := f.Dims()
		dims := map[int][2]int{1: {i2, i3}, 2: {i1, i3}, 3: {i1, i2}}
		for mode := 1; mode <= 3; mode++ {
			// Row widths J_b from 1 to 33: the AVX2 leaf takes multiples
			// of four and leaves the rest to the portable one.
			for _, j := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {6, 9}, {2, 16}, {3, 31}, {2, 33}} {
				ya := randomMatrix(rng, dims[mode][0], j[0])
				yb := randomMatrix(rng, dims[mode][1], j[1])
				// A zero row of ya scales its entries' terms to zero, which
				// accumOuter skips; the infinity opposite makes a term that
				// is added instead show up as NaN.
				clear(ya.Row(rng.Intn(ya.Rows())))
				yb.Set(rng.Intn(yb.Rows()), 0, math.Inf(1))
				want := refProjectedUnfold(f, mode, ya, yb)
				p := NewProjector(f, mode)
				for _, lf := range mat.Leaves() {
					p.leaf = lf
					for _, workers := range kernelWorkers {
						got := p.Unfold(ya, yb, workers)
						requireSameBits(t, fmt.Sprintf("%s mode %d J=%v leaf=%s workers=%d", name, mode, j, lf, workers), got, want)
					}
				}
			}
		}
	}
}

// TestProjectorsMatchOneShot unfolds through the three Projectors of one
// tensor again and again, mode after mode — new factors, a new width,
// other worker counts, as the sweeps of a decomposition do — and holds
// every unfolding to the one-shot ProjectedUnfoldWorkers. Once the shared
// array has grown, every mode writes to it.
func TestProjectorsMatchOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := randSparse(rng, 40, 31, 53, 3000)
	i1, i2, i3 := f.Dims()
	dims := map[int][2]int{1: {i2, i3}, 2: {i1, i3}, 3: {i1, i2}}
	proj := Projectors(f)
	for round, j := range [][2]int{{3, 5}, {4, 8}, {4, 8}, {2, 3}} {
		var arrays []*float64
		for mode := 1; mode <= 3; mode++ {
			ya := randomMatrix(rng, dims[mode][0], j[0])
			yb := randomMatrix(rng, dims[mode][1], j[1])
			want := ProjectedUnfoldWorkers(f, mode, ya, yb, 1)
			got := proj[mode-1].Unfold(ya, yb, kernelWorkers[(round+mode)%len(kernelWorkers)])
			requireSameBits(t, fmt.Sprintf("round %d mode %d J=%v", round, mode, j), got, want)
			arrays = append(arrays, &got.Data()[0])
		}
		if round > 1 && (arrays[0] != arrays[1] || arrays[1] != arrays[2]) {
			t.Fatalf("round %d: the modes' unfoldings do not share one array", round)
		}
	}
}
