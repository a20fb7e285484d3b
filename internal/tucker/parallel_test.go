package tucker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// mediumTensor is large enough that every parallel region of the sweep —
// unfolding products, Gram products, Cholesky-QR, block applies — crosses
// its dispatch threshold and actually runs on the worker pool, so these
// tests exercise the concurrent paths under the race detector.
func mediumTensor(seed int64) *tensor.Sparse3 {
	rng := rand.New(rand.NewSource(seed))
	f := tensor.NewSparse3(40, 50, 60)
	for range 6000 {
		f.Append(rng.Intn(40), rng.Intn(50), rng.Intn(60), rng.NormFloat64())
	}
	f.Build()
	return f
}

func requireBitIdentical(t *testing.T, a, b *Decomposition, label string) {
	t.Helper()
	mats := func(d *Decomposition) []*mat.Matrix { return []*mat.Matrix{d.Y1, d.Y2, d.Y3} }
	for i := range mats(a) {
		ma, mb := mats(a)[i], mats(b)[i]
		for j := range ma.Data() {
			if ma.Data()[j] != mb.Data()[j] {
				t.Fatalf("%s: Y%d diverges at flat index %d: %v vs %v", label, i+1, j, ma.Data()[j], mb.Data()[j])
			}
		}
	}
	for m := range a.Lambda {
		for i := range a.Lambda[m] {
			if a.Lambda[m][i] != b.Lambda[m][i] {
				t.Fatalf("%s: Lambda[%d][%d] diverges", label, m, i)
			}
		}
	}
	for i := range a.Core.Data() {
		if a.Core.Data()[i] != b.Core.Data()[i] {
			t.Fatalf("%s: core diverges at %d", label, i)
		}
	}
	if a.Fit != b.Fit || a.Sweeps != b.Sweeps {
		t.Fatalf("%s: fit/sweeps diverge: %v/%d vs %v/%d", label, a.Fit, a.Sweeps, b.Fit, b.Sweeps)
	}
}

// TestWorkersBitwiseParity pins the parallel sweep's central invariant:
// the worker count partitions work but never reorders a floating-point
// accumulation, so workers=1 and workers=GOMAXPROCS (and an
// oversubscribed pool) produce bit-identical factors from the same seed.
func TestWorkersBitwiseParity(t *testing.T) {
	f := mediumTensor(31)
	base := Options{J1: 8, J2: 10, J3: 12, MaxSweeps: 3, Seed: 77}

	serial := base
	serial.Workers = 1
	want := Decompose(f, serial)

	for _, workers := range []int{runtime.GOMAXPROCS(0), 4, 0} {
		opts := base
		opts.Workers = workers
		got := Decompose(f, opts)
		requireBitIdentical(t, want, got, "exact path")
	}
}

// TestWorkersBitwiseParitySketched extends the invariant to the
// randomized path: the sketch is seeded, and its products partition the
// same way, so the worker count must not change a single bit there
// either.
func TestWorkersBitwiseParitySketched(t *testing.T) {
	f := mediumTensor(37)
	base := Options{
		J1: 8, J2: 10, J3: 12, MaxSweeps: 3, Seed: 99,
		Sketch: SketchOptions{Enabled: true, MinColumns: 1},
	}

	serial := base
	serial.Workers = 1
	want := Decompose(f, serial)

	parallel := base
	parallel.Workers = 4
	requireBitIdentical(t, want, Decompose(f, parallel), "sketched path")
}

// TestSketchedFitNearExact checks the accuracy contract of the
// randomized path: on the paper's running example (forced through the
// sketch with MinColumns=1) the captured fit must land within a tight
// tolerance of the exact ALS optimum.
func TestSketchedFitNearExact(t *testing.T) {
	f := paperTensor()
	exact := Decompose(f, Options{J1: 3, J2: 2, J3: 3, Seed: 3})
	sketched := Decompose(f, Options{
		J1: 3, J2: 2, J3: 3, Seed: 3,
		Sketch: SketchOptions{Enabled: true, MinColumns: 1},
	})
	if math.Abs(sketched.Fit-exact.Fit) > 0.02 {
		t.Fatalf("sketched fit %v strays from exact fit %v", sketched.Fit, exact.Fit)
	}
	for i, y := range []*mat.Matrix{sketched.Y1, sketched.Y2, sketched.Y3} {
		if !mat.IsOrthonormal(y, 1e-8) {
			t.Fatalf("sketched Y(%d) not orthonormal", i+1)
		}
	}
}

// TestSketchedFitNearExactMediumScale repeats the fit check on a tensor
// large enough for the sketch to engage through its default MinColumns
// gate, at a truncation where the sketch genuinely approximates.
func TestSketchedFitNearExactMediumScale(t *testing.T) {
	f := mediumTensor(41)
	exact := Decompose(f, Options{J1: 8, J2: 10, J3: 12, MaxSweeps: 4, Seed: 7})
	sketched := Decompose(f, Options{
		J1: 8, J2: 10, J3: 12, MaxSweeps: 4, Seed: 7,
		Sketch: SketchOptions{Enabled: true, MinColumns: 64},
	})
	if exact.Fit <= 0 {
		t.Fatalf("exact fit %v not positive; test tensor degenerate", exact.Fit)
	}
	if rel := math.Abs(sketched.Fit-exact.Fit) / exact.Fit; rel > 0.10 {
		t.Fatalf("sketched fit %v vs exact %v: relative gap %.3f > 0.10", sketched.Fit, exact.Fit, rel)
	}
}

// TestSketchedDeterministic pins that the randomized path is random in
// name only: the sketch derives from Options.Seed.
func TestSketchedDeterministic(t *testing.T) {
	f := mediumTensor(43)
	opts := Options{
		J1: 6, J2: 6, J3: 6, MaxSweeps: 2, Seed: 5,
		Sketch: SketchOptions{Enabled: true, MinColumns: 1},
	}
	requireBitIdentical(t, Decompose(f, opts), Decompose(f, opts), "sketched determinism")
}

// cancelAfterN is a context whose Err starts failing after n polls; it
// lets the tests cancel deterministically between two specific mode
// updates of a sweep.
type cancelAfterN struct {
	context.Context
	calls, n int
}

func (c *cancelAfterN) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelMidParallelSweep cancels between the mode-1 and mode-2
// factor updates of the first parallel sweep: DecomposeContext must
// return context.Canceled and no decomposition, even with the worker
// pool engaged.
func TestCancelMidParallelSweep(t *testing.T) {
	f := mediumTensor(47)
	// Err polls: 2 during HOSVD init, then one per mode update. n=3
	// allows init plus the mode-1 update, so cancellation lands strictly
	// inside the first sweep.
	ctx := &cancelAfterN{Context: context.Background(), n: 3}
	d, err := DecomposeContext(ctx, f, Options{J1: 8, J2: 10, J3: 12, Workers: 4, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d != nil {
		t.Fatal("cancelled decomposition must be nil")
	}
	if ctx.calls < 4 {
		t.Fatalf("cancellation fired before the sweep started (%d polls)", ctx.calls)
	}
}

// TestDecomposeContextReturnsValidationErrors pins the error half of the
// contract: invalid options come back as errors wrapping
// ErrInvalidOptions — never as panics — from DecomposeContext.
func TestDecomposeContextReturnsValidationErrors(t *testing.T) {
	f := paperTensor()
	cases := []Options{
		{J1: 0, J2: 1, J3: 1},
		{J1: 1, J2: -2, J3: 1},
		{J1: 1, J2: 1, J3: 1, MaxSweeps: -1},
		{J1: 1, J2: 1, J3: 1, Sketch: SketchOptions{Enabled: true, Oversample: -1}},
		{J1: 1, J2: 1, J3: 1, Sketch: SketchOptions{Enabled: true, MinColumns: -5}},
	}
	for _, opts := range cases {
		d, err := DecomposeContext(context.Background(), f, opts)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("opts %+v: err = %v, want ErrInvalidOptions", opts, err)
		}
		if d != nil {
			t.Fatalf("opts %+v: got a decomposition alongside the error", opts)
		}
	}
}

// TestDecomposePanicsWithValidationError pins the panic half: Decompose
// surfaces the same wrapped validation error as a panic, since a
// background context leaves invalid options as its only failure mode.
func TestDecomposePanicsWithValidationError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for J1=0")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("panic value %v does not wrap ErrInvalidOptions", r)
		}
	}()
	Decompose(paperTensor(), Options{J1: 0, J2: 1, J3: 1})
}

// TestConcurrentDecompositionsShareNothing runs decompositions of the
// same tensor side by side. Each owns its workspace — eigensolver
// temporaries, entry buckets, projected unfoldings — so each must
// reproduce the serial bits (and the race detector must stay quiet).
func TestConcurrentDecompositionsShareNothing(t *testing.T) {
	f := mediumTensor(9)
	opts := Options{J1: 6, J2: 7, J3: 8, Seed: 3, MaxSweeps: 3, Workers: 2}
	want := Decompose(f, opts)
	got := make([]*Decomposition, 3)
	done := make(chan int)
	for i := range got {
		go func() {
			got[i] = Decompose(f, opts)
			done <- i
		}()
	}
	for range got {
		<-done
	}
	for i, d := range got {
		requireBitIdentical(t, d, want, fmt.Sprintf("decomposition %d of %d", i+1, len(got)))
	}
}
