// Package cluster implements the concept-distillation machinery of
// Section V: k-means with k-means++ seeding, and the Ng–Jordan–Weiss
// spectral clustering algorithm applied to the pairwise tag distance
// matrix to group tags into concepts.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// KMeansOptions configures KMeans.
type KMeansOptions struct {
	// MaxIter bounds Lloyd iterations. Zero means 100.
	MaxIter int
	// Restarts runs the whole algorithm this many times with different
	// seedings and keeps the lowest-inertia result. Zero means 4.
	Restarts int
	// Seed makes the clustering deterministic.
	Seed int64
}

// KMeansResult is a hard assignment of points to k clusters.
type KMeansResult struct {
	// Assign[i] is the cluster index of point i.
	Assign []int
	// Centers holds the k centroids as rows.
	Centers *mat.Matrix
	// Inertia is the summed squared distance of points to their centers.
	Inertia float64
}

// KMeans clusters the rows of points into k groups using Lloyd's
// algorithm with k-means++ seeding. Empty clusters are re-seeded from the
// point farthest from its center.
func KMeans(points *mat.Matrix, k int, opts KMeansOptions) *KMeansResult {
	n := points.Rows()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("cluster: k=%d out of range for %d points", k, n))
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	restarts := opts.Restarts
	if restarts == 0 {
		restarts = 4
	}

	var best *KMeansResult
	for rs := range restarts {
		rng := rand.New(rand.NewSource(opts.Seed + int64(rs)*7919))
		res := kmeansOnce(points, k, maxIter, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

func kmeansOnce(points *mat.Matrix, k, maxIter int, rng *rand.Rand) *KMeansResult {
	n, dim := points.Dims()
	centers := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	dists := make([]float64, n)

	for iter := range maxIter {
		// Assignment step: each row goes to its nearest center, the
		// lowest index winning ties through the strict < comparison.
		changed := false
		for i := range n {
			bi, bd := 0, math.Inf(1)
			for c := range k {
				if d := sqDist(points.Row(i), centers.Row(c)); d < bd {
					bd, bi = d, c
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
			dists[i] = bd
		}
		// Update step: accumulate the centroids in row order.
		counts := make([]int, k)
		next := mat.New(k, dim)
		for i := range n {
			c := assign[i]
			counts[c]++
			mat.AXPY(1, points.Row(i), next.Row(c))
		}
		for c := range k {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the farthest point.
				far, fd := 0, -1.0
				for i := range n {
					if dists[i] > fd {
						fd, far = dists[i], i
					}
				}
				copy(next.Row(c), points.Row(far))
				dists[far] = 0
				changed = true
				continue
			}
			mat.ScaleVec(1/float64(counts[c]), next.Row(c))
		}
		centers = next
		if !changed && iter > 0 {
			break
		}
	}

	var inertia float64
	for i := range n {
		inertia += sqDist(points.Row(i), centers.Row(assign[i]))
	}
	return &KMeansResult{Assign: assign, Centers: centers, Inertia: inertia}
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting.
func seedPlusPlus(points *mat.Matrix, k int, rng *rand.Rand) *mat.Matrix {
	n, dim := points.Dims()
	centers := mat.New(k, dim)
	first := rng.Intn(n)
	copy(centers.Row(0), points.Row(first))
	d2 := make([]float64, n)
	for i := range n {
		d2[i] = sqDist(points.Row(i), centers.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n)
		} else {
			u := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= u {
					idx = i
					break
				}
			}
		}
		copy(centers.Row(c), points.Row(idx))
		for i := range n {
			if d := sqDist(points.Row(i), centers.Row(c)); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
