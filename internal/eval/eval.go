// Package eval implements the paper's evaluation metrics: NDCG@N for
// ranking quality (Equation 24, Figure 4), the JCN-based tag-distance
// accuracy scores JCNavg and Rankavg (Equations 22–23, Table III), and
// the storage accounting behind Table VII.
package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/semnet"
	"repro/internal/tagging"
)

// NDCGAtN computes NDCG@N given the graded relevance of the returned
// ranking (in rank order) and the relevance of every resource in the
// corpus (for the ideal normalizer Z_N). Positions beyond the returned
// list count as zero gain. Returns 0 when the corpus has no relevant
// resource for the query.
func NDCGAtN(ranked []int, all []int, n int) float64 {
	dcg := dcgAtN(ranked, n)
	ideal := append([]int(nil), all...)
	sort.Sort(sort.Reverse(sort.IntSlice(ideal)))
	idcg := dcgAtN(ideal, n)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// dcgAtN computes Σ_{i=1..N} (2^r(i) − 1) / log₂(i + 1).
func dcgAtN(rels []int, n int) float64 {
	var s float64
	for i := 0; i < n && i < len(rels); i++ {
		if rels[i] <= 0 {
			continue
		}
		gain := math.Exp2(float64(rels[i])) - 1
		s += gain / math.Log2(float64(i+2))
	}
	return s
}

// Judge grades a resource's relevance to a query identified by index
// (0, 1 or 2 — the paper's Irrelevant / Partially Relevant / Relevant).
type Judge func(query int, resource int) int

// Queryable is the slice of the rank.Ranker interface eval needs; it is
// satisfied by every ranking method.
type Queryable interface {
	Query(tags []string, topN int) []ir.Scored
}

// NDCGCurve evaluates a ranker over a query workload and returns the mean
// NDCG@N for each requested cutoff — one curve of Figure 4.
func NDCGCurve(r Queryable, queries [][]string, judge Judge, numResources int, cutoffs []int) map[int]float64 {
	maxN := 0
	for _, n := range cutoffs {
		if n > maxN {
			maxN = n
		}
	}
	sums := make(map[int]float64, len(cutoffs))
	for qi, tags := range queries {
		res := r.Query(tags, maxN)
		ranked := make([]int, len(res))
		for i, s := range res {
			ranked[i] = judge(qi, s.Doc)
		}
		all := make([]int, numResources)
		for rid := range numResources {
			all[rid] = judge(qi, rid)
		}
		for _, n := range cutoffs {
			sums[n] += NDCGAtN(ranked, all, n)
		}
	}
	out := make(map[int]float64, len(cutoffs))
	for _, n := range cutoffs {
		out[n] = sums[n] / float64(len(queries))
	}
	return out
}

// TagAccuracy holds the Table III scores for one method.
type TagAccuracy struct {
	// JCNAvg is Equation 22: the mean JCN distance between each tag and
	// the most-similar tag the method picked for it.
	JCNAvg float64
	// RankAvg is Equation 23: the mean ground-truth rank of the picked
	// neighbor among all in-lexicon tags.
	RankAvg float64
	// Evaluated is k: how many tags entered the averages (tag and picked
	// neighbor both in the lexicon).
	Evaluated int
}

// TagDistanceAccuracy scores a pairwise tag distance matrix against the
// taxonomy ground truth, following Section VI-C: for every tag in the
// lexicon, find its nearest other tag under dist; if that neighbor is
// also in the lexicon, accumulate the JCN distance and the ground-truth
// rank of the neighbor.
func TagDistanceAccuracy(ds *tagging.Dataset, dist *mat.Matrix, tax *semnet.Taxonomy) TagAccuracy {
	n := ds.Tags.Len()
	if dist.Rows() != n {
		panic(fmt.Sprintf("eval: distance matrix %d×%d does not match %d tags", dist.Rows(), dist.Cols(), n))
	}
	// D = tags present in the lexicon.
	var lexicon []string
	inLex := make([]bool, n)
	for id := range n {
		name := ds.Tags.Name(id)
		if tax.Contains(name) {
			inLex[id] = true
			lexicon = append(lexicon, name)
		}
	}
	nn := nearestNeighbors(dist)
	var acc TagAccuracy
	for id := range n {
		if !inLex[id] {
			continue
		}
		sim := nn[id]
		if sim < 0 || !inLex[sim] {
			continue
		}
		t := ds.Tags.Name(id)
		ts := ds.Tags.Name(sim)
		acc.JCNAvg += tax.JCN(t, ts)
		acc.RankAvg += float64(tax.RankOf(t, ts, lexicon))
		acc.Evaluated++
	}
	if acc.Evaluated > 0 {
		acc.JCNAvg /= float64(acc.Evaluated)
		acc.RankAvg /= float64(acc.Evaluated)
	}
	return acc
}

func nearestNeighbors(d *mat.Matrix) []int {
	n := d.Rows()
	out := make([]int, n)
	for i := range n {
		best, bd := -1, math.Inf(1)
		for j := range n {
			if j == i {
				continue
			}
			if v := d.At(i, j); v < bd {
				bd, best = v, j
			}
		}
		out[i] = best
	}
	return out
}

// DenseTensorBytes returns the storage a materialized purified tensor F̂
// would need at 8 bytes per entry — the left column of Table VII.
func DenseTensorBytes(i1, i2, i3 int) int64 {
	return 8 * int64(i1) * int64(i2) * int64(i3)
}

// CoreAndFactorBytes returns the storage of S ∈ R^{J1×J2×J3} plus
// Y⁽²⁾ ∈ R^{I2×J2} — the right column of Table VII.
func CoreAndFactorBytes(j1, j2, j3, i2 int) int64 {
	return 8 * (int64(j1)*int64(j2)*int64(j3) + int64(i2)*int64(j2))
}

// FormatBytes renders a byte count the way Table VII does (MB/GB/TB).
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1f TB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
