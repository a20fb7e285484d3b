package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tucker"
)

// canonicalPartition rewrites cluster labels in first-appearance order so
// two assignments can be compared as partitions (concept ids are
// arbitrary labels; rankings only depend on which tags share one).
func canonicalPartition(assign []int) []int {
	relabel := make(map[int]int)
	out := make([]int, len(assign))
	for i, c := range assign {
		id, ok := relabel[c]
		if !ok {
			id = len(relabel)
			relabel[c] = id
		}
		out[i] = id
	}
	return out
}

// TestGoldenParityEmbeddingVsExactSpectral is the golden parity check for
// the embedding-first refactor: on the paper's running example, the
// default path (k-means on the Theorem 2 embedding rows) must produce the
// same concept partition — and therefore the same rankings — as the seed
// pipeline (materialized D̂, Ng–Jordan–Weiss spectral clustering).
func TestGoldenParityEmbeddingVsExactSpectral(t *testing.T) {
	ds := paperDataset()
	tuck := tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1}
	spec := cluster.SpectralOptions{Sigma: 1, K: 2, Seed: 5}

	embedded := mustBuild(t, ds, Options{Tucker: tuck, Spectral: spec})
	exact := mustBuild(t, ds, Options{Tucker: tuck, Spectral: spec, ExactSpectral: true})

	if embedded.Distances != nil {
		t.Fatal("embedding path materialized the dense matrix")
	}
	if exact.Distances == nil {
		t.Fatal("exact path must materialize the dense matrix")
	}

	// Identical concept partitions (up to label permutation).
	pa, pb := canonicalPartition(embedded.Assign), canonicalPartition(exact.Assign)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("partitions diverge: embedding %v, exact %v", embedded.Assign, exact.Assign)
		}
	}
	if embedded.K != exact.K {
		t.Fatalf("K diverges: %d vs %d", embedded.K, exact.K)
	}

	// Identical rankings for every single-tag query (partition-equal
	// models index identically; scores match within float tolerance).
	for tag := range ds.Tags.Len() {
		name := ds.Tags.Name(tag)
		ra := embedded.Query([]string{name}, 0)
		rb := exact.Query([]string{name}, 0)
		if len(ra) != len(rb) {
			t.Fatalf("query %q: %d vs %d results", name, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Doc != rb[i].Doc || math.Abs(ra[i].Score-rb[i].Score) > 1e-12 {
				t.Fatalf("query %q result %d: %+v vs %+v", name, i, ra[i], rb[i])
			}
		}
	}

	// The lazy distance view agrees with the exact matrix within float
	// tolerance (λ·a − λ·b vs λ²·(a−b)² rounding).
	dm := embedded.DistanceMatrix()
	n := dm.Rows()
	for i := range n {
		for j := range n {
			if math.Abs(dm.At(i, j)-exact.Distances.At(i, j)) > 1e-9 {
				t.Fatalf("D̂[%d,%d]: lazy %v vs exact %v", i, j, dm.At(i, j), exact.Distances.At(i, j))
			}
		}
	}
}

// goldenFactorHash is the SHA-256 over the IEEE-754 bit patterns of
// Y1‖Y2‖Y3‖Λ1‖Λ2‖Λ3‖Core for the paper example at J=(3,2,3), Seed=1, as
// produced by the pre-parallelization seed implementation. The parallel
// refactor must not move a single bit on the exact path.
const goldenFactorHash = "1f58bccbe07f482449e7975e74ed0805c526a4406c5cc97d5d76dda491d16682"

func hashFloats(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func factorHash(d *tucker.Decomposition) string {
	h := sha256.New()
	hashFloats(h, d.Y1.Data())
	hashFloats(h, d.Y2.Data())
	hashFloats(h, d.Y3.Data())
	for _, lam := range d.Lambda {
		hashFloats(h, lam)
	}
	hashFloats(h, d.Core.Data())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExactPathFactorsBitForBit pins the exact ALS path, at every worker
// count, to the exact factors the seed implementation produced: the
// parallel sweep partitions work across goroutines but never reorders a
// floating-point accumulation, so the golden hash must survive the
// refactor and the workers knob.
func TestExactPathFactorsBitForBit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The golden bits assume no FMA contraction; other architectures
		// may fuse multiply-adds and legitimately differ in low bits.
		t.Skipf("golden float bits recorded on amd64, running on %s", runtime.GOARCH)
	}
	f := paperDataset().Tensor()
	for _, workers := range []int{0, 1, 4} {
		d := tucker.Decompose(f, tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1, Workers: workers})
		if got := factorHash(d); got != goldenFactorHash {
			t.Fatalf("workers=%d: factor hash %s, want golden %s", workers, got, goldenFactorHash)
		}
		if d.Fit != 0.68439980937267975 || d.Sweeps != 2 {
			t.Fatalf("workers=%d: fit=%.17g sweeps=%d diverge from seed behavior", workers, d.Fit, d.Sweeps)
		}
	}
}

// TestExactSpectralMatchesSeedBehavior pins the exact path to the seed
// pipeline's observable behavior on the running example: the Section V
// clustering (folk+people together, laptop apart) with the distance
// matrix populated.
func TestExactSpectralMatchesSeedBehavior(t *testing.T) {
	p := mustBuild(t, paperDataset(), Options{
		Tucker:        tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1},
		Spectral:      cluster.SpectralOptions{Sigma: 1, K: 2, Seed: 5},
		ExactSpectral: true,
	})
	if p.K != 2 {
		t.Fatalf("K = %d, want 2", p.K)
	}
	if p.Assign[0] != p.Assign[1] || p.Assign[2] == p.Assign[0] {
		t.Fatalf("assignment = %v", p.Assign)
	}
	if p.Distances.Rows() != 3 {
		t.Fatalf("distance matrix %d×%d", p.Distances.Rows(), p.Distances.Cols())
	}
}
