// Package tucker implements the truncated Tucker decomposition of sparse
// third-order tensors by higher-order orthogonal iteration (HOOI), the
// alternating least squares scheme of De Lathauwer, De Moor and
// Vandewalle that the paper's Algorithm 1 invokes as ALS.
//
// Decompose returns the core tensor S, the three factor matrices Y⁽ⁿ⁾,
// and the per-mode singular values Λₙ of the final sweep. Λ₂ is the ALS
// by-product that Theorem 2 uses to turn pairwise tag distances into a
// diagonal quadratic form.
//
// The sweep is parallel: each mode-n unfolding product, Gram product and
// QR step is block-partitioned across a bounded worker pool
// (Options.Workers), and every worker count produces bit-identical
// factors — parallel regions assign disjoint outputs without changing
// per-element summation order. The eigensolves under each mode update
// apply their operator to a whole block of vectors at a time
// (mat.Operator.ApplyBlock), through kernels that keep that order too:
// oracle_test.go pins the factors of four tensors, shaped to reach every
// branch, to hashes recorded before those kernels were written.
// Options.Sketch additionally switches the
// leading-left SVDs of large unfoldings to a seeded randomized range
// finder; the exact path remains the deterministic default.
package tucker

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// ErrInvalidOptions tags option-validation failures. DecomposeContext
// returns errors wrapping it; Decompose panics with them.
var ErrInvalidOptions = errors.New("tucker: invalid options")

// SketchOptions configures the randomized range-finder path of the ALS
// sweep. When enabled, the leading-left SVD of each sufficiently wide
// projected unfolding is replaced by a sketched one (Halko–Martinsson–
// Tropp): O(rows·cols·(Jₙ+Oversample)) per pass instead of the
// O(rows²·cols) Gram products of the exact path. The sketch is seeded
// from Options.Seed, so sketched decompositions are deterministic too —
// they just converge to a slightly different (near-optimal) fit.
type SketchOptions struct {
	// Enabled turns the sketched path on. The zero value keeps the exact
	// seeded-deterministic SVDs everywhere.
	Enabled bool
	// Oversample is the number of sketch columns beyond Jₙ. Zero means 8.
	Oversample int
	// PowerIters is the number of power-iteration refinement rounds.
	// Zero means 2; negative disables refinement.
	PowerIters int
	// MinColumns gates the sketch by unfolding width: modes whose
	// projected unfolding has fewer columns keep the exact SVD (small
	// dense problems are fast and more accurate). Zero means 512.
	MinColumns int
}

func (s SketchOptions) minColumns() int {
	if s.MinColumns == 0 {
		return 512
	}
	return s.MinColumns
}

// WarmStart carries mode-2 and mode-3 factor matrices from a previous
// decomposition, used as the initial factors of the ALS sweep instead of
// the HOSVD initialization. What a warm start saves is that
// initialization: up to 48 subspace iterations over each raw unfolding.
// It does not by itself shorten the sweep loop: on the benchmark corpora
// cold and warm runs both stop at the MaxSweeps cap, the fit still
// rising by about 1e-5 per sweep against a Tol of 1e-7 (ROADMAP item 3).
// Where the fit rule does fire inside the cap, a warm start fires it
// earlier (TestWarmStartConvergesInFewerSweeps). The factors still
// converge towards the ALS fixed point of the *current* tensor; the warm
// start is an accelerator, not an approximation.
//
// Rows must be pre-aligned to the current tensor's mode-2/mode-3 index
// spaces by the caller (entities can appear, disappear or move between
// builds). The matrices may have any shape: rows and columns are
// truncated or padded as needed and the result is re-orthonormalized
// before the first sweep.
type WarmStart struct {
	// Y2 seeds the mode-2 (tag) factor, Y3 the mode-3 (resource) factor.
	// Mode 1 needs no seed: the sweep computes it first, from Y2 and Y3.
	Y2, Y3 *mat.Matrix
}

// Options configures Decompose.
type Options struct {
	// J1, J2, J3 are the target core dimensions. The paper specifies them
	// through reduction ratios cₙ = Iₙ/Jₙ (Definition 2); use FromRatios
	// to derive core dimensions the same way.
	J1, J2, J3 int
	// MaxSweeps bounds the number of full ALS sweeps. Zero means 12.
	MaxSweeps int
	// Tol stops the iteration when the relative fit improves by less than
	// this amount between sweeps. Zero means 1e-7.
	Tol float64
	// Seed makes the decomposition deterministic.
	Seed uint64
	// Workers bounds the worker pool shared by the mode-n unfolding
	// products, the Gram/QR steps inside subspace iteration, and the
	// sketched range finder. Zero means one worker per logical CPU; 1
	// runs the sweep serially. Factors are bit-identical for every
	// worker count.
	Workers int
	// Sketch switches large-mode leading-left SVDs to the randomized
	// range finder. The zero value keeps the exact path.
	Sketch SketchOptions
	// SkipHOSVDInit starts from random orthonormal factors instead of the
	// HOSVD of the raw unfoldings. Mainly for tests and ablations.
	SkipHOSVDInit bool
	// WarmStart, if non-nil, seeds the sweep with previous factor
	// matrices instead of the HOSVD initialization (see WarmStart). Nil
	// keeps the cold-start path bit-identical to previous releases.
	WarmStart *WarmStart
}

// FromRatios returns core dimensions Jₙ = max(1, round(Iₙ/cₙ)) for a
// tensor with dimensions (i1, i2, i3), mirroring the paper's reduction
// ratios (for example c₁=c₂=c₃=50 in the experiments).
func FromRatios(i1, i2, i3 int, c1, c2, c3 float64) (j1, j2, j3 int) {
	r := func(i int, c float64) int {
		if c < 1 {
			panic(fmt.Sprintf("tucker: reduction ratio %v < 1", c))
		}
		j := int(math.Round(float64(i) / c))
		if j < 1 {
			j = 1
		}
		if j > i {
			j = i
		}
		return j
	}
	return r(i1, c1), r(i2, c2), r(i3, c3)
}

// Decomposition is the result of a truncated Tucker decomposition.
type Decomposition struct {
	// Core is the J1×J2×J3 core tensor S (Equation 16).
	Core *tensor.Dense3
	// Y1, Y2, Y3 are the factor matrices Y⁽ⁿ⁾ ∈ R^{Iₙ×Jₙ} with
	// orthonormal columns.
	Y1, Y2, Y3 *mat.Matrix
	// Lambda holds the leading mode-n singular values from the final ALS
	// sweep; Lambda[1] is the Λ₂ of Theorem 2. Indexed by mode-1 (0,1,2).
	Lambda [3][]float64
	// Fit is 1 − ‖F−F̂‖/‖F‖, the fraction of the tensor norm captured.
	// On the sketched path it is an estimate built from the sketched
	// singular values.
	Fit float64
	// Sweeps is the number of ALS sweeps performed.
	Sweeps int
}

// Decompose computes the truncated Tucker decomposition of f.
//
// Panic/error contract: Decompose is DecomposeContext under a background
// context, which never cancels — so the only way the computation can
// fail is invalid Options, and Decompose panics with that validation
// error (it wraps ErrInvalidOptions) instead of returning it. Callers
// that want errors instead of panics, or cancellation, use
// DecomposeContext.
func Decompose(f *tensor.Sparse3, opts Options) *Decomposition {
	//lint:ignore ctxflow documented compat shim: Decompose IS DecomposeContext under a never-cancelled root context
	d, err := DecomposeContext(context.Background(), f, opts)
	if err != nil {
		// Background contexts are never cancelled, so err can only be an
		// options-validation failure: surface it as the documented panic.
		panic(err)
	}
	return d
}

// validateOptions rejects option values the sweep cannot run with. It is
// the single source of DecomposeContext's non-context errors.
func validateOptions(opts Options) error {
	name := [3]string{"J1", "J2", "J3"}
	for i, j := range [3]int{opts.J1, opts.J2, opts.J3} {
		if j <= 0 {
			return fmt.Errorf("%w: %s must be positive, got %d", ErrInvalidOptions, name[i], j)
		}
	}
	if opts.MaxSweeps < 0 {
		return fmt.Errorf("%w: MaxSweeps must be non-negative, got %d", ErrInvalidOptions, opts.MaxSweeps)
	}
	if opts.Sketch.Oversample < 0 {
		return fmt.Errorf("%w: Sketch.Oversample must be non-negative, got %d", ErrInvalidOptions, opts.Sketch.Oversample)
	}
	if opts.Sketch.MinColumns < 0 {
		return fmt.Errorf("%w: Sketch.MinColumns must be non-negative, got %d", ErrInvalidOptions, opts.Sketch.MinColumns)
	}
	if opts.WarmStart != nil && (opts.WarmStart.Y2 == nil || opts.WarmStart.Y3 == nil) {
		return fmt.Errorf("%w: WarmStart requires both Y2 and Y3", ErrInvalidOptions)
	}
	return nil
}

// DecomposeContext is Decompose with cooperative cancellation and an
// error return instead of a panic: invalid Options come back wrapping
// ErrInvalidOptions, and the context is checked before every per-mode
// factor update — a long ALS run aborts within one mode update of
// cancellation (parallel workers inside a mode update always run to
// completion; they are bounded by one unfolding product or SVD) and
// returns the context's error.
func DecomposeContext(ctx context.Context, f *tensor.Sparse3, opts Options) (*Decomposition, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	i1, i2, i3 := f.Dims()
	j1, j2, j3 := clampDims(opts, i1, i2, i3)
	maxSweeps := opts.MaxSweeps
	if maxSweeps == 0 {
		maxSweeps = 12
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-7
	}

	// Sweep SVDs run with a bounded budget: social-tagging tensors have
	// long flat noise spectra, so the trailing wanted eigenvectors
	// converge slowly — and to machine precision they simply don't need
	// to (each sweep refines the previous one anyway). Small problems
	// bypass iteration entirely via exact dense paths inside LeftSVD.
	sub := mat.SubspaceOptions{Seed: opts.Seed, MaxIter: 45, Tol: 1e-6, Workers: opts.Workers}

	// Initial factors for modes 2 and 3 (mode 1 is computed first in the
	// sweep and needs no initialization). Initialization only has to land
	// in the right neighborhood — the ALS sweeps refine it — so the
	// eigensolver runs with a loose budget here.
	initSub := mat.SubspaceOptions{Seed: opts.Seed, MaxIter: 48, Tol: 1e-4, Workers: opts.Workers}
	var y2, y3 *mat.Matrix
	if opts.WarmStart != nil {
		y2 = adaptFactor(opts.WarmStart.Y2, i2, j2, opts.Seed+1)
		y3 = adaptFactor(opts.WarmStart.Y3, i3, j3, opts.Seed+2)
	} else if opts.SkipHOSVDInit {
		y2 = randomOrthonormal(i2, j2, opts.Seed+1)
		y3 = randomOrthonormal(i3, j3, opts.Seed+2)
	} else {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		y2 = hosvdInit(f, 2, j2, initSub)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		y3 = hosvdInit(f, 3, j3, initSub)
	}

	normF := f.FrobNorm()
	var y1 *mat.Matrix
	var lambda [3][]float64
	prevFit := math.Inf(-1)
	fit := 0.0
	sweeps := 0

	for s := range maxSweeps {
		sweeps = s + 1
		// Mode 1.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w1 := tensor.ProjectedUnfoldWorkers(f, 1, y2, y3, opts.Workers)
		svd1 := leadingLeft(w1, j1, sub, opts.Sketch, sketchSeed(opts.Seed, 1, s))
		y1, lambda[0] = svd1.U, svd1.S
		// Mode 2.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w2 := tensor.ProjectedUnfoldWorkers(f, 2, y1, y3, opts.Workers)
		svd2 := leadingLeft(w2, j2, sub, opts.Sketch, sketchSeed(opts.Seed, 2, s))
		y2, lambda[1] = svd2.U, svd2.S
		// Mode 3.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w3 := tensor.ProjectedUnfoldWorkers(f, 3, y1, y2, opts.Workers)
		svd3 := leadingLeft(w3, j3, sub, opts.Sketch, sketchSeed(opts.Seed, 3, s))
		y3, lambda[2] = svd3.U, svd3.S

		// After the mode-3 update the captured energy is Σ Λ₃², since
		// ‖S‖² = ‖Y⁽³⁾ᵀW₃‖² and Y⁽³⁾ holds the leading left singular
		// vectors of W₃.
		var captured float64
		for _, sv := range lambda[2] {
			captured += sv * sv
		}
		residual := normF*normF - captured
		if residual < 0 {
			residual = 0
		}
		if normF > 0 {
			fit = 1 - math.Sqrt(residual)/normF
		} else {
			fit = 1
		}
		if fit-prevFit <= tol && s > 0 {
			break
		}
		prevFit = fit
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	core := tensor.CoreWorkers(f, y1, y2, y3, opts.Workers)
	return &Decomposition{
		Core: core, Y1: y1, Y2: y2, Y3: y3,
		Lambda: lambda, Fit: fit, Sweeps: sweeps,
	}, nil
}

func clampDims(opts Options, i1, i2, i3 int) (j1, j2, j3 int) {
	c := func(j, max int) int {
		if j > max {
			return max
		}
		return j
	}
	j1 = c(opts.J1, i1)
	j2 = c(opts.J2, i2)
	j3 = c(opts.J3, i3)
	// Each Jₙ is further bounded by the rank bound of the projected
	// unfolding (its column count is the product of the other two core
	// dimensions). Iterate to a fixed point since the bounds interact.
	for {
		n1 := minInt(j1, j2*j3)
		n2 := minInt(j2, j1*j3)
		n3 := minInt(j3, j1*j2)
		if n1 == j1 && n2 == j2 && n3 == j3 {
			return
		}
		j1, j2, j3 = n1, n2, n3
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sketchSeed derives a per-(mode, sweep) seed for the randomized range
// finder so successive sketches are independent while the whole sweep
// stays deterministic in the user's seed.
func sketchSeed(seed uint64, mode, sweep int) uint64 {
	x := seed + uint64(mode)*0x9e3779b97f4a7c15 + uint64(sweep)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hosvdInit returns the leading j left singular vectors of the raw mode-n
// unfolding, computed via subspace iteration on the sparse Gram operator.
func hosvdInit(f *tensor.Sparse3, mode, j int, sub mat.SubspaceOptions) *mat.Matrix {
	op := tensor.UnfoldingGram(f, mode)
	eig := mat.SubspaceIteration(op, j, sub)
	return eig.Vectors
}

// leadingLeft returns the leading j left singular vectors and values of
// w: exactly by default, or through the seeded randomized range finder
// when the sketch is enabled and the unfolding is wide enough.
func leadingLeft(w *mat.Matrix, j int, sub mat.SubspaceOptions, sk SketchOptions, seed uint64) *mat.SVD {
	rows, cols := w.Dims()
	maxK := minInt(rows, cols)
	if j > maxK {
		j = maxK
	}
	if sk.Enabled && cols >= sk.minColumns() {
		skSub := sub
		skSub.Seed = seed
		return mat.SketchedLeftSVD(w, j, mat.SketchSpec{
			Oversample: sk.Oversample, PowerIters: sk.PowerIters,
		}, skSub)
	}
	return mat.LeftSVD(w, j, sub)
}

// adaptFactor reshapes a warm-start factor to the current mode dimension
// and core rank: the overlapping block is copied, entities and columns
// the previous factor does not cover are filled with small deterministic
// pseudo-random noise (so no column is degenerate), and the result is
// re-orthonormalized. The noise scale is far below the unit-norm signal
// of the copied columns, so the warm subspace dominates the first sweep.
func adaptFactor(src *mat.Matrix, rows, cols int, seed uint64) *mat.Matrix {
	sr, sc := src.Dims()
	out := mat.New(rows, cols)
	state := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11)/(1<<53) - 0.5
	}
	const noise = 1e-3
	for i := range rows {
		dst := out.Row(i)
		for j := range cols {
			if i < sr && j < sc {
				dst[j] = src.At(i, j)
			} else {
				dst[j] = noise * next()
			}
		}
	}
	return mat.Orthonormalize(out)
}

// randomOrthonormal returns an n×k matrix with orthonormal columns drawn
// from a deterministic pseudo-random start.
func randomOrthonormal(n, k int, seed uint64) *mat.Matrix {
	m := mat.New(n, k)
	state := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11)/(1<<53) - 0.5
	}
	for i := range n {
		for j := range k {
			m.Set(i, j, next())
		}
	}
	return mat.Orthonormalize(m)
}

// Reconstruct materializes F̂ = S ×₁Y⁽¹⁾ ×₂Y⁽²⁾ ×₃Y⁽³⁾. Tests only: the
// production distance path never forms F̂ (Theorems 1 and 2).
func (d *Decomposition) Reconstruct() *tensor.Dense3 {
	return tensor.Reconstruct(d.Core, d.Y1, d.Y2, d.Y3)
}

// CoreDims returns the core dimensions (J1, J2, J3).
func (d *Decomposition) CoreDims() (int, int, int) { return d.Core.Dims() }
