package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

func paperTensor() *tensor.Sparse3 {
	f := tensor.NewSparse3(3, 3, 3)
	for _, r := range [][3]int{
		{0, 0, 0}, {0, 0, 1}, {1, 0, 1}, {2, 0, 1}, {0, 1, 0}, {1, 2, 2}, {2, 2, 2},
	} {
		f.Append(r[0], r[1], r[2], 1)
	}
	f.Build()
	return f
}

func randSparse(rng *rand.Rand, i1, i2, i3, nnz int) *tensor.Sparse3 {
	f := tensor.NewSparse3(i1, i2, i3)
	for range nnz {
		f.Append(rng.Intn(i1), rng.Intn(i2), rng.Intn(i3), rng.NormFloat64())
	}
	f.Build()
	return f
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestTheorem1AgainstBruteForce is the central correctness test of the
// reproduction: the Theorem 1 shortcut must equal the brute-force
// distances on the materialized purified tensor, for truncated cores.
func TestTheorem1AgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 5 {
		f := randSparse(rng, 6, 7, 5, 60)
		d := tucker.Decompose(f, tucker.Options{J1: 3, J2: 4, J3: 3, Seed: uint64(trial)})
		c := NewCubeLSI(d)
		oracle := BruteForce(d)
		for i := range 7 {
			for j := range 7 {
				if i == j {
					continue
				}
				want := oracle.At(i, j)
				got := c.Distance(i, j)
				if !almostEq(got, want, 1e-9*math.Max(1, want)) {
					t.Fatalf("trial %d: Theorem 1 D(%d,%d) = %v, brute force %v", trial, i, j, got, want)
				}
			}
		}
	}
}

// TestTheorem2AgainstTheorem1 verifies that the diagonal fast path agrees
// with the general quadratic form at ALS convergence.
func TestTheorem2AgainstTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randSparse(rng, 6, 8, 7, 90)
	d := tucker.Decompose(f, tucker.Options{J1: 4, J2: 4, J3: 4, Seed: 3, MaxSweeps: 80, Tol: 1e-13})
	c := NewCubeLSI(d)
	for i := range 8 {
		for j := i + 1; j < 8; j++ {
			t1 := c.Distance(i, j)
			t2 := c.DistanceDiag(i, j)
			if !almostEq(t1, t2, 1e-4*math.Max(1, t1)) {
				t.Fatalf("Theorem 2 D(%d,%d) = %v, Theorem 1 = %v", i, j, t2, t1)
			}
		}
	}
}

func TestPaperExampleDistances(t *testing.T) {
	// The running example: Tucker with the tag mode truncated to 2 gives
	// D̂12 = √1.92, D̂13 = √5.94, D̂23 = √2.36, and the shortcut must
	// reproduce those numbers without materializing F̂.
	f := paperTensor()
	d := tucker.Decompose(f, tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1})
	c := NewCubeLSI(d)
	within := func(got, want float64) bool { return math.Abs(got-want)/want < 0.02 }
	if !within(c.Distance(0, 1), math.Sqrt(1.92)) {
		t.Errorf("D̂12 = %v, want √1.92", c.Distance(0, 1))
	}
	if !within(c.Distance(0, 2), math.Sqrt(5.94)) {
		t.Errorf("D̂13 = %v, want √5.94", c.Distance(0, 2))
	}
	if !within(c.Distance(1, 2), math.Sqrt(2.36)) {
		t.Errorf("D̂23 = %v, want √2.36", c.Distance(1, 2))
	}
	// And the qualitative correction of Section IV-D: folk/people closer
	// than people/laptop.
	if !(c.Distance(0, 1) < c.Distance(1, 2)) {
		t.Error("purified distances should bring folk and people together")
	}
}

func TestPairwiseSymmetricZeroDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := randSparse(rng, 5, 6, 5, 40)
	d := tucker.Decompose(f, tucker.Options{J1: 3, J2: 3, J3: 3, Seed: 4})
	c := NewCubeLSI(d)
	for _, m := range []*mat.Matrix{c.Pairwise(), c.PairwiseTheorem1()} {
		for i := range m.Rows() {
			if m.At(i, i) != 0 {
				t.Fatal("diagonal must be zero")
			}
			for j := range m.Cols() {
				if m.At(i, j) != m.At(j, i) {
					t.Fatal("matrix must be symmetric")
				}
				if m.At(i, j) < 0 {
					t.Fatal("distances must be non-negative")
				}
			}
		}
	}
}

func TestCubeSimMatchesPaper(t *testing.T) {
	// Section IV-B: D12 = √3, D13 = √6, D23 = √3 on the raw tensor.
	f := paperTensor()
	d := CubeSimSparse(f)
	if !almostEq(d.At(0, 1), math.Sqrt(3), 1e-12) {
		t.Fatalf("D12 = %v, want √3", d.At(0, 1))
	}
	if !almostEq(d.At(0, 2), math.Sqrt(6), 1e-12) {
		t.Fatalf("D13 = %v, want √6", d.At(0, 2))
	}
	if !almostEq(d.At(1, 2), math.Sqrt(3), 1e-12) {
		t.Fatalf("D23 = %v, want √3", d.At(1, 2))
	}
}

func TestCubeSimDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randSparse(rng, 6, 7, 8, 70)
	sparse := CubeSimSparse(f)
	dense, rows := CubeSimDense(f, nil)
	if rows != 7 {
		t.Fatalf("completed %d rows, want 7", rows)
	}
	if !mat.Equal(sparse, dense, 1e-10) {
		t.Fatal("dense and sparse CubeSim disagree")
	}
}

func TestCubeSimDenseBudgetAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := randSparse(rng, 5, 10, 5, 50)
	// The budget is polled before every row but the first, which always
	// completes: granting three polls completes four rows, granting none
	// one.
	for granted, want := range []int{1, 2, 3, 4} {
		calls := 0
		_, rows := CubeSimDense(f, func() bool {
			calls++
			return calls <= granted
		})
		if rows != want {
			t.Fatalf("budget granting %d polls: completed %d rows, want %d", granted, rows, want)
		}
	}
}

func TestLSIDistances(t *testing.T) {
	// Full-rank LSI must reproduce the raw aggregated-matrix distances of
	// Figure 3: d12 = 3, d13 = √14, d23 = √5.
	f := paperTensor()
	d := LSI(f, 3, mat.SubspaceOptions{Seed: 1})
	if !almostEq(d.At(0, 1), 3, 1e-9) {
		t.Fatalf("full-rank LSI d12 = %v, want 3", d.At(0, 1))
	}
	if !almostEq(d.At(0, 2), math.Sqrt(14), 1e-9) {
		t.Fatalf("d13 = %v, want √14", d.At(0, 2))
	}
	if !almostEq(d.At(1, 2), math.Sqrt(5), 1e-9) {
		t.Fatalf("d23 = %v, want √5", d.At(1, 2))
	}
}

func TestLSITruncationPurifies(t *testing.T) {
	// Truncated LSI distances differ from raw ones but remain a valid
	// metric-ish structure (symmetric, non-negative, zero diagonal).
	rng := rand.New(rand.NewSource(7))
	f := randSparse(rng, 6, 9, 8, 80)
	d := LSI(f, 3, mat.SubspaceOptions{Seed: 2})
	for i := range 9 {
		if d.At(i, i) != 0 {
			t.Fatal("diagonal not zero")
		}
		for j := range 9 {
			if d.At(i, j) != d.At(j, i) || d.At(i, j) < 0 {
				t.Fatal("not symmetric non-negative")
			}
		}
	}
}

func TestNearestNeighbor(t *testing.T) {
	d := mat.FromRows([][]float64{
		{0, 1, 5},
		{1, 0, 2},
		{5, 2, 0},
	})
	nn := NearestNeighbor(d)
	want := []int{1, 0, 1}
	for i := range want {
		if nn[i] != want[i] {
			t.Fatalf("nn = %v, want %v", nn, want)
		}
	}
}

func TestMemoryBytesSmall(t *testing.T) {
	// The Table VII property: retained structures are tiny relative to
	// the dense purified tensor.
	rng := rand.New(rand.NewSource(8))
	f := randSparse(rng, 40, 50, 30, 600)
	d := tucker.Decompose(f, tucker.Options{J1: 4, J2: 5, J3: 3, Seed: 5})
	c := NewCubeLSI(d)
	denseBytes := int64(40*50*30) * 8
	if c.MemoryBytes() >= denseBytes/10 {
		t.Fatalf("retained structures too large: %d vs dense %d", c.MemoryBytes(), denseBytes)
	}
}
