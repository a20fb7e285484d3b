package cluster

import (
	"fmt"

	"repro/internal/mat"
)

// Centroids computes the k cluster centroids implied by an existing
// assignment over the rows of points, skipping rows whose entry in
// skip is true (and rows assigned outside [0,k)). It is the bridge from
// a previous build's concept partition to the current embedding space:
// the incremental update seeds it with every previously-labeled tag at
// its NEW embedding position under its OLD label (previous labels are
// the best prior for locating each concept after a small delta — see
// core.Update), skips only rows with no previous label, and then
// re-assigns the moved rows against the resulting centroids.
//
// Clusters with no surviving member come back as zero rows; ok reports
// whether every cluster kept at least one member — callers should fall
// back to a full re-clustering when it is false.
func Centroids(points *mat.Matrix, assign []int, k int, skip []bool) (centers *mat.Matrix, ok bool) {
	n, dim := points.Dims()
	if len(assign) != n {
		panic(fmt.Sprintf("cluster: %d assignments for %d points", len(assign), n))
	}
	centers = mat.New(k, dim)
	counts := make([]int, k)
	for i := range n {
		if skip != nil && skip[i] {
			continue
		}
		c := assign[i]
		if c < 0 || c >= k {
			continue
		}
		counts[c]++
		mat.AXPY(1, points.Row(i), centers.Row(c))
	}
	ok = true
	for c := range k {
		if counts[c] == 0 {
			ok = false
			continue
		}
		mat.ScaleVec(1/float64(counts[c]), centers.Row(c))
	}
	return centers, ok
}

// AssignNearest re-assigns exactly the listed rows to their nearest
// centroid (squared Euclidean, ties to the lower cluster id), writing
// into assign in place. Rows not listed keep their previous cluster —
// the incremental counterpart of a full Lloyd assignment sweep.
func AssignNearest(points, centers *mat.Matrix, rows []int, assign []int) {
	k := centers.Rows()
	for _, i := range rows {
		best, bd := 0, sqDist(points.Row(i), centers.Row(0))
		for c := 1; c < k; c++ {
			if d := sqDist(points.Row(i), centers.Row(c)); d < bd {
				bd, best = d, c
			}
		}
		assign[i] = best
	}
}
