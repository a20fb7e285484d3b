package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWorkspaceMatchesOneShot runs one Workspace through leading-left
// SVDs and subspace iterations of changing shapes, as a decomposition's
// sweeps and HOSVD initialization do: down every LeftSVD branch (the
// explicit Gram of the rows and of the columns, with a full eigensolve
// and with subspace iteration, and the Gram operators past gramLimit),
// growing and shrinking. Every result must carry the bits of the
// package-level call, and stay as it was while the workspace goes on.
func TestWorkspaceMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := SubspaceOptions{Seed: 7, MaxIter: 20, Tol: 1e-6, Workers: 2}
	type call struct {
		m, n, k int
		eig     bool // SubspaceIteration on the Gram of an m×n matrix
	}
	calls := []call{
		{120, 300, 30, false}, // rows' Gram, subspace iteration
		{300, 120, 50, false}, // columns' Gram, full eigensolve
		{40, 90, 6, false},    // rows' Gram, full eigensolve
		{150, 90, 12, true},
		{1650, 1700, 3, false}, // past gramLimit: GramOperator
		{1700, 1640, 3, false}, // gramTOperator
		{300, 120, 50, false},
		{90, 40, 12, true},
	}
	var ws Workspace
	type kept struct {
		label            string
		got, want        *Matrix
		gotVals, wantVal []float64
	}
	var results []kept
	for _, c := range calls {
		a := randMatrix(rng, c.m, c.n)
		label := fmt.Sprintf("%d×%d k=%d", c.m, c.n, c.k)
		if c.eig {
			op := &GramOperator{W: a}
			want := SubspaceIteration(op, c.k, opts)
			got := ws.SubspaceIteration(&GramOperator{W: a}, c.k, opts)
			requireSameBits(t, label+" eigenvectors", got.Vectors, want.Vectors)
			requireSameFloats(t, label+" eigenvalues", got.Values, want.Values)
			results = append(results, kept{label, got.Vectors, want.Vectors, got.Values, want.Values})
			continue
		}
		want := LeftSVD(a, c.k, opts)
		got := ws.LeftSVD(a, c.k, opts)
		requireSameBits(t, label+" U", got.U, want.U)
		requireSameFloats(t, label+" S", got.S, want.S)
		results = append(results, kept{label, got.U, want.U, got.S, want.S})
	}
	for _, r := range results {
		requireSameBits(t, r.label+" after the workspace moved on", r.got, r.want)
		requireSameFloats(t, r.label+" values after the workspace moved on", r.gotVals, r.wantVal)
	}
}
