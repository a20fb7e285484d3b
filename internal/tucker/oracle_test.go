package tucker

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/race"
	"repro/internal/tensor"
)

// The factor hashes below were recorded on the tree whose kernels took
// one mat.Dot per Gram element and one Operator.Apply per block column,
// before any of them was rewritten, and have not been regenerated since.
// The paper example behind core's goldenFactorHash is small enough to
// stay on the exact dense paths; these tensors are shaped to reach the
// rest of what a decomposition runs:
//
//   - lastfm: the deep_core benchmark shape, 399×330×672 → 20×17×34.
//     Subspace iteration on an explicit Gram matrix in all three modes
//     (through the transposed unfolding in mode 3, where cols < rows)
//     and a sparse HOSVD at block widths 21 and 38.
//   - wide: the wide_* benchmark corpus with fewer resources and assignments.
//     The mode-3 Gram (104 wide, 36 pairs wanted) takes the full
//     tridiagonal eigensolve and the mode-3 HOSVD block is 40 wide.
//   - tall/taller: random tensors whose mode-1 unfolding passes LeftSVD's
//     explicit-Gram limit on both sides, so GramOperator (rows ≤ cols)
//     and gramTOperator (cols < rows) run; their small modes take the
//     Jacobi eigensolve.
//
// Each is decomposed cold and from a warm start, and every worker count
// must reproduce the same bits.
var oracleCases = []struct {
	name       string
	tensor     func() *tensor.Sparse3
	opts       func(i1, i2, i3 int) Options
	cold, warm string
}{
	{
		name:   "lastfm",
		tensor: func() *tensor.Sparse3 { return datagen.Generate(datagen.LastFMLike()).Clean.Tensor() },
		opts:   ratioOptions(20),
		cold:   "98a825a51a38cf513a0a492b639903d94db2ed35f47934a59f147b8ccef49094",
		warm:   "d882f28d8052291054a35e2f63874f4802944eaf4383d1250985a13d692aa802",
	},
	{
		name: "wide",
		tensor: func() *tensor.Sparse3 {
			p := datagen.BibsonomyLike()
			p.Name = "wide-cut"
			p.Users, p.Resources, p.Assignments = 400, 2000, 40000
			p.Categories, p.ConceptsPerCategory, p.WordsPerConcept = 8, 8, 12
			return datagen.Generate(p).Clean.Tensor()
		},
		opts: ratioOptions(50),
		cold: "6b42a3c1e6f8eca3d0eb0e424fa33db1f646c8595fbe953c28a571fc4e36897a",
		warm: "eff97b575e59cddc9b1efb859818b31407d023404736006cbe1fb64423b598bf",
	},
	{
		name:   "tall",
		tensor: func() *tensor.Sparse3 { return randomTensor(5, 1700, 45, 45, 9000) },
		opts: func(int, int, int) Options {
			return Options{J1: 2, J2: 41, J3: 42, MaxSweeps: 1, Seed: 3}
		},
		cold: "2c15107a31e611cb1247cc54319efb7c832f93a0cf8332281dd8807bf0194b7d",
		warm: "a330533f24d148163bc244329f1440d561bb8de87d3c4a815111f37316a07df5",
	},
	{
		name:   "taller",
		tensor: func() *tensor.Sparse3 { return randomTensor(6, 1800, 43, 43, 9000) },
		opts: func(int, int, int) Options {
			return Options{J1: 2, J2: 40, J3: 41, MaxSweeps: 1, Seed: 4}
		},
		cold: "bd226964710ed7b2a5c46d44e139181153b1740efdefbdde4b4d0156a372ca3d",
		warm: "a9886390b2bea587ed2408a93322f1746c2e79a1373755cd2fbe68a0ce618e55",
	},
}

func ratioOptions(c float64) func(i1, i2, i3 int) Options {
	return func(i1, i2, i3 int) Options {
		j1, j2, j3 := FromRatios(i1, i2, i3, c, c, c)
		return Options{J1: j1, J2: j2, J3: j3, MaxSweeps: 2, Seed: 1}
	}
}

func randomTensor(seed int64, i1, i2, i3, nnz int) *tensor.Sparse3 {
	rng := rand.New(rand.NewSource(seed))
	f := tensor.NewSparse3(i1, i2, i3)
	for range nnz {
		f.Append(rng.Intn(i1), rng.Intn(i2), rng.Intn(i3), rng.NormFloat64())
	}
	f.Build()
	return f
}

// decompositionHash is the SHA-256 over the IEEE-754 bit patterns of
// Y1‖Y2‖Y3‖Λ1‖Λ2‖Λ3‖Core, the same layout as core's goldenFactorHash.
func decompositionHash(d *Decomposition) string {
	h := sha256.New()
	var b [8]byte
	write := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	write(d.Y1.Data())
	write(d.Y2.Data())
	write(d.Y3.Data())
	for _, lam := range d.Lambda {
		write(lam)
	}
	write(d.Core.Data())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestKernelOracleFactorHashes replays the pinned decompositions.
func TestKernelOracleFactorHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits recorded on amd64, running on %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("decomposes four mid-sized tensors six times each")
	}
	workerCounts := []int{0, 1, 4}
	if race.Enabled {
		// Worker parity under the detector is TestWorkersBitwiseParity's
		// job; one pooled pass keeps this test inside the -race budget.
		workerCounts = []int{4}
	}
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			f := c.tensor()
			base := c.opts(f.Dims())
			for _, workers := range workerCounts {
				opts := base
				opts.Workers = workers
				cold := Decompose(f, opts)
				if got := decompositionHash(cold); got != c.cold {
					t.Errorf("workers=%d cold: factor hash %s, want %s", workers, got, c.cold)
				}
				opts.WarmStart = &WarmStart{Y2: cold.Y2, Y3: cold.Y3}
				if got := decompositionHash(Decompose(f, opts)); got != c.warm {
					t.Errorf("workers=%d warm: factor hash %s, want %s", workers, got, c.warm)
				}
			}
		})
	}
}
