package cluster

import "repro/internal/mat"

// ConceptKMeans distills concepts by running k-means directly on the
// rows of the tag embedding E = Λ₂·Y⁽²⁾. By Theorem 2, squared Euclidean
// distances between embedding rows are exactly the purified D̂² values,
// so Lloyd's assignment and centroid updates operate in the same geometry
// the spectral path clusters — without the O(|T|²) affinity matrix or an
// eigendecomposition: O(|T|·K·k₂) per iteration.
//
// When opts.K is zero, K is chosen by the paper's variance-covered rule
// applied to the embedding's own spectrum: the smallest number of leading
// Λ₂ components covering VarianceCovered (default 0.95) of the Σλ² mass,
// bounded by MaxK (default |T|/2). spectrum is the Λ₂ singular-value
// vector; if it is empty the column energies of points are used, which
// coincide with Λ₂² when Y⁽²⁾ has orthonormal columns.
func ConceptKMeans(points *mat.Matrix, spectrum []float64, opts SpectralOptions) *SpectralResult {
	n := points.Rows()
	if n == 0 {
		return &SpectralResult{}
	}
	energies := make([]float64, 0, len(spectrum))
	for _, l := range spectrum {
		energies = append(energies, l*l)
	}
	if len(energies) == 0 {
		energies = columnEnergies(points)
	}

	k := opts.K
	mass := 1.0
	if k <= 0 {
		k, mass = chooseKFromEnergies(energies, opts, n)
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	km := KMeans(points, k, KMeansOptions{Seed: opts.Seed})
	return &SpectralResult{Assign: km.Assign, K: k, EigenvalueMass: mass}
}

// chooseKFromEnergies picks the smallest k whose leading energies cover
// the target fraction of the total mass, mirroring chooseK on the
// spectral path.
func chooseKFromEnergies(energies []float64, opts SpectralOptions, n int) (int, float64) {
	target := opts.VarianceCovered
	if target == 0 {
		target = 0.95
	}
	maxK := opts.MaxK
	if maxK == 0 {
		maxK = (n + 1) / 2
	}
	if maxK > n {
		maxK = n
	}
	if maxK < 1 {
		maxK = 1
	}
	var total float64
	for _, e := range energies {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 1, 1
	}
	var acc float64
	k := 1
	for i, e := range energies {
		if i >= maxK {
			break
		}
		if e > 0 {
			acc += e
		}
		k = i + 1
		if acc/total >= target {
			break
		}
	}
	return k, acc / total
}

// columnEnergies returns the per-column squared mass of points.
func columnEnergies(points *mat.Matrix) []float64 {
	n, dim := points.Dims()
	out := make([]float64, dim)
	for i := range n {
		for j, v := range points.Row(i) {
			out[j] += v * v
		}
	}
	return out
}
