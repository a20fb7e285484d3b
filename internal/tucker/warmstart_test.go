package tucker

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// perturb returns a copy of f with a few extra entries appended — the
// tensor-level shape of a small assignment delta.
func perturb(f *tensor.Sparse3, extra int, seed int64) *tensor.Sparse3 {
	i1, i2, i3 := f.Dims()
	out := tensor.NewSparse3(i1, i2, i3)
	for _, e := range f.Entries() {
		out.Append(e.I, e.J, e.K, e.V)
	}
	rng := rand.New(rand.NewSource(seed))
	for range extra {
		out.Append(rng.Intn(i1), rng.Intn(i2), rng.Intn(i3), 1)
	}
	out.Build()
	return out
}

// TestWarmStartConvergesInFewerSweeps holds on this fixture — a small
// random tensor, a loose Tol of 1e-6 and room for 60 sweeps: warm
// starting from the converged factors of a nearly identical tensor trips
// the fit-improvement stopping rule in fewer sweeps than a cold start,
// while reaching an equally good fit. It is not what the benchmark
// corpora show: at the default Tol of 1e-7 and MaxSweeps of 12 their
// cold and warm runs both stop at the cap (ROADMAP item 3), and what a
// warm start saves there is the HOSVD initialisation.
func TestWarmStartConvergesInFewerSweeps(t *testing.T) {
	f := mediumTensor(3)
	opts := Options{J1: 8, J2: 10, J3: 9, Seed: 1, MaxSweeps: 60, Tol: 1e-6}
	prev := Decompose(f, opts)

	g := perturb(f, f.NNZ()/100+1, 42)
	cold := Decompose(g, opts)
	warmOpts := opts
	warmOpts.WarmStart = &WarmStart{Y2: prev.Y2, Y3: prev.Y3}
	warm := Decompose(g, warmOpts)

	if cold.Sweeps <= 2 {
		t.Fatalf("cold start converged in %d sweeps; fixture too easy to show a warm-start win", cold.Sweeps)
	}
	if warm.Sweeps >= cold.Sweeps {
		t.Fatalf("warm start took %d sweeps, cold %d — no acceleration", warm.Sweeps, cold.Sweeps)
	}
	if warm.Fit < cold.Fit-1e-6 {
		t.Fatalf("warm fit %v below cold fit %v — warm start must accelerate, not approximate", warm.Fit, cold.Fit)
	}
}

// TestWarmStartNilKeepsColdPathBitIdentical pins the contract the golden
// factor hash in internal/core relies on: a nil WarmStart is exactly the
// pre-warm-start code path.
func TestWarmStartNilKeepsColdPathBitIdentical(t *testing.T) {
	f := paperTensor()
	opts := Options{J1: 3, J2: 2, J3: 3, Seed: 1}
	a := Decompose(f, opts)
	opts.WarmStart = nil // explicit: the zero value is the cold path
	b := Decompose(f, opts)
	requireBitIdentical(t, a, b, "nil WarmStart")
}

// TestWarmStartAdaptsShapes proves a warm start survives vocabulary
// growth and shrinkage: factors from a smaller (and larger) tensor are
// padded/truncated and re-orthonormalized rather than rejected.
func TestWarmStartAdaptsShapes(t *testing.T) {
	small := mediumTensor(3)
	prev := Decompose(small, Options{J1: 6, J2: 7, J3: 6, Seed: 1})

	// Grown modes: 5 new rows in each of modes 2 and 3, one more column.
	i1, i2, i3 := small.Dims()
	grown := tensor.NewSparse3(i1, i2+5, i3+5)
	for _, e := range small.Entries() {
		grown.Append(e.I, e.J, e.K, e.V)
	}
	for n := range 12 {
		grown.Append(n%i1, i2+n%5, i3+(n+2)%5, 1)
	}
	grown.Build()
	d, err := DecomposeContext(t.Context(), grown, Options{
		J1: 6, J2: 8, J3: 7, Seed: 1,
		WarmStart: &WarmStart{Y2: prev.Y2, Y3: prev.Y3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, c := d.Y2.Dims(); r != i2+5 || c != 7 {
		// J2=8 exceeds neither bound here; clampDims may shrink, so just
		// check rows and that columns are positive and orthonormal below.
		if r != i2+5 || c < 1 {
			t.Fatalf("Y2 dims %d×%d", r, c)
		}
	}
	requireOrthonormal(t, d.Y2, "Y2")
	requireOrthonormal(t, d.Y3, "Y3")

	// Shrunk ranks: warm start with wider factors than the target rank.
	d2 := Decompose(small, Options{J1: 4, J2: 4, J3: 4, Seed: 1,
		WarmStart: &WarmStart{Y2: prev.Y2, Y3: prev.Y3}})
	requireOrthonormal(t, d2.Y2, "shrunk Y2")
	if d2.Fit <= 0 {
		t.Fatalf("shrunk warm-start fit %v", d2.Fit)
	}
}

func requireOrthonormal(t *testing.T, m *mat.Matrix, label string) {
	t.Helper()
	g := mat.TMul(m, m)
	n := g.Rows()
	if !mat.Equal(g, mat.Identity(n), 1e-8) {
		t.Fatalf("%s: columns not orthonormal: YᵀY=%v", label, g)
	}
}

// TestWarmStartValidation pins the options contract: a WarmStart with a
// missing factor is an ErrInvalidOptions, not a crash mid-sweep.
func TestWarmStartValidation(t *testing.T) {
	f := paperTensor()
	for _, ws := range []*WarmStart{
		{Y2: mat.New(3, 2)},
		{Y3: mat.New(3, 3)},
		{},
	} {
		_, err := DecomposeContext(t.Context(), f, Options{J1: 3, J2: 2, J3: 3, WarmStart: ws})
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("WarmStart %+v: err = %v, want ErrInvalidOptions", ws, err)
		}
	}
}
