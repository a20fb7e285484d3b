package ir

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
)

// refRank is the brute-force Equation 4 reference the scan kernel is
// checked against: the ranking this package shipped before the dense
// kernel, kept verbatim as test code — accumulate every matched product
// into a map in ascending term order, normalise, threshold, full-sort,
// truncate. It shares no accumulator, pool or heap with the kernel.
func refRank(ix *Index, qw map[int]float64, topN int, minScore float64) []Scored {
	if len(qw) == 0 {
		return nil
	}
	terms := sortedTerms(qw)
	var qnorm2 float64
	for _, t := range terms {
		qnorm2 += qw[t] * qw[t]
	}
	qnorm := math.Sqrt(qnorm2)

	dots := make(map[int]float64)
	for _, t := range terms {
		w := qw[t]
		for _, p := range ix.postings[t] {
			dots[p.doc] += w * p.weight
		}
	}
	out := make([]Scored, 0, len(dots))
	for d, dot := range dots {
		if ix.norms[d] == 0 {
			continue
		}
		score := dot / (qnorm * ix.norms[d])
		if score < minScore {
			continue
		}
		out = append(out, Scored{Doc: d, Score: score})
	}
	refSort(out)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// refRankBlended is the reference for a personalised ranking: the full
// unthresholded cosine ranking, each score then blended with the
// document's user affinity, thresholded on the blended value, re-sorted
// and truncated — the blend strictly after the normalisation.
func refRankBlended(ix *Index, qw map[int]float64, user []float64, beta float64, topN int, minScore float64) []Scored {
	f := ix.Forward()
	var out []Scored
	for _, s := range refRank(ix, qw, 0, math.Inf(-1)) {
		score := (1-beta)*s.Score + beta*f.Affinity(user, s.Doc)
		if score < minScore {
			continue
		}
		out = append(out, Scored{Doc: s.Doc, Score: score})
	}
	refSort(out)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// refRankDominant is the reference for RankDominant: every document,
// doc by doc, through Forward.Score, kept only when the query names its
// dominant term, blended when a user is set, then thresholded,
// full-sorted and truncated. It shares no list, dense query, pool or heap
// with the pass.
func refRankDominant(ix *Index, qw map[int]float64, user []float64, beta float64, topN int, minScore float64) []Scored {
	if len(qw) == 0 {
		return nil
	}
	f := ix.Forward()
	qnorm := ix.QueryNorm(qw)
	var out []Scored
	for d := range ix.NumDocs() {
		if _, probed := qw[f.Dominant(d)]; !probed {
			continue
		}
		score, ok := f.Score(qw, qnorm, d)
		if !ok {
			continue
		}
		if user != nil {
			score = (1-beta)*score + beta*f.Affinity(user, d)
		}
		if score < minScore {
			continue
		}
		out = append(out, Scored{Doc: d, Score: score})
	}
	refSort(out)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

func refSort(out []Scored) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Doc < out[b].Doc
	})
}

// randomIndex draws a seeded index built to hit the kernel's corners:
// duplicated documents (exact score ties), empty documents and
// documents holding only a ubiquitous term (zero norm, no postings),
// and a term no document uses.
func randomIndex(rng *rand.Rand, nDocs, nTerms int) *Index {
	docs := make([]map[int]int, nDocs)
	for d := range docs {
		switch {
		case d > 0 && rng.Intn(4) == 0:
			// Exact duplicate of an earlier document: a guaranteed tie.
			src := docs[rng.Intn(d)]
			dup := make(map[int]int, len(src))
			for t, c := range src {
				dup[t] = c
			}
			docs[d] = dup
		case rng.Intn(10) == 0:
			docs[d] = map[int]int{} // empty: zero norm
		default:
			doc := map[int]int{}
			for range 1 + rng.Intn(4) {
				doc[1+rng.Intn(nTerms-2)] += 1 + rng.Intn(3)
			}
			docs[d] = doc
		}
		// Term 0 is in every document: idf 0, never a posting, so a
		// document holding nothing else has norm zero. Term nTerms-1
		// stays unused.
		docs[d][0] = 1
	}
	return BuildIndex(docs, nTerms)
}

// tieIndex is the tie-adversarial index for the selection's admission
// floor. Every document belongs to one of a few profile classes (d mod
// 7, as in syntheticIndex), so equal scores come in long runs spread
// over the whole id range. Terms 1 and 2 split the collection: term 1
// is in the upper half of the ids only, term 2 in the lower half only,
// with equal document frequency, so every document has a lower-half
// twin that scores bit-equal against any query weighting 1 and 2
// equally. Terms are scanned in ascending order, so a query naming 1
// meets the upper half first: touched is not doc-ascending, and each
// run of ties arrives high ids first — the order in which a floor that
// mishandles the doc tie-break keeps the wrong twins. In some classes
// the half term is the dominant term, so the dominant-list pass meets
// the same order.
func tieIndex(nDocs int) *Index {
	const classes = 7
	docs := make([]map[int]int, nDocs)
	for d := range docs {
		p := d % classes
		half := 2
		if d >= nDocs/2 {
			half = 1
		}
		doc := map[int]int{0: 1, half: 1 + p%3, 3 + p: 1 + (p+1)%2}
		doc[3+(p+3)%classes]++
		docs[d] = doc
	}
	return BuildIndex(docs, 3+classes)
}

// tieCuts returns the positions of a best-first ranking where a topN
// cut or a threshold lands inside a run of equal scores: every i with
// full[i].Score == full[i+1].Score, thinned to at most a handful.
func tieCuts(full []Scored) []int {
	var cuts []int
	for i := 0; i+1 < len(full); i++ {
		if full[i].Score == full[i+1].Score {
			cuts = append(cuts, i)
		}
	}
	if len(cuts) > 6 {
		cuts = []int{cuts[0], cuts[1], cuts[len(cuts)/3], cuts[len(cuts)/2], cuts[len(cuts)-2], cuts[len(cuts)-1]}
	}
	return cuts
}

// TestSelectionTieAdversarialReference pins the selection's admission
// floor on tieIndex: multi-term queries whose later terms reach lower
// doc ids than the first, topN cut inside a run of bit-equal scores,
// and MinScore equal to a tied score. The shared scan, the blended scan
// (with a user that keeps the twins tied) and the dominant-list pass
// must each reproduce their brute-force reference bit for bit. A floor
// that rejects ties outright, or breaks them the wrong way, keeps the
// wrong twins here.
func TestSelectionTieAdversarialReference(t *testing.T) {
	const beta = 0.25
	for _, nDocs := range []int{98, 400} {
		ix := tieIndex(nDocs)
		user := make([]float64, ix.NumTerms())
		for i := range user {
			user[i] = float64(i%4) - 1.5
		}
		user[2] = user[1] // twins stay tied under the blend
		queries := []map[int]int{
			{1: 1, 2: 1},
			{1: 1, 2: 1, 3: 1},
			{1: 2, 2: 2, 5: 1, 8: 1},
			{1: 1, 6: 1},
			{2: 1, 4: 1, 7: 2},
			{1: 1}, // one term: touched ascending, the control
		}
		type pass struct {
			name string
			run  func(qw map[int]float64, topN int, min float64) []Scored
			ref  func(qw map[int]float64, topN int, min float64) []Scored
		}
		passes := []pass{
			{"shared",
				func(qw map[int]float64, n int, m float64) []Scored { return ix.RankWeights(qw, n, m) },
				func(qw map[int]float64, n int, m float64) []Scored { return refRank(ix, qw, n, m) }},
			{"user",
				func(qw map[int]float64, n int, m float64) []Scored { return ix.RankBlended(qw, user, beta, n, m) },
				func(qw map[int]float64, n int, m float64) []Scored { return refRankBlended(ix, qw, user, beta, n, m) }},
			{"dominant",
				func(qw map[int]float64, n int, m float64) []Scored { return ix.RankDominant(qw, nil, beta, n, m) },
				func(qw map[int]float64, n int, m float64) []Scored { return refRankDominant(ix, qw, nil, beta, n, m) }},
			{"dominant user",
				func(qw map[int]float64, n int, m float64) []Scored { return ix.RankDominant(qw, user, beta, n, m) },
				func(qw map[int]float64, n int, m float64) []Scored { return refRankDominant(ix, qw, user, beta, n, m) }},
		}
		for qi, counts := range queries {
			qw := ix.QueryWeights(counts)
			for _, p := range passes {
				full := p.ref(qw, 0, math.Inf(-1))
				cuts := tieCuts(full)
				if len(cuts) == 0 {
					t.Fatalf("docs %d query %d %s: no tied run in %d results; the index lost its ties", nDocs, qi, p.name, len(full))
				}
				topNs := []int{0, 1, 10, len(full)}
				mins := []float64{math.Inf(-1)}
				for _, i := range cuts {
					topNs = append(topNs, i+1)         // cut between two tied documents
					mins = append(mins, full[i].Score) // threshold exactly on a tie
				}
				for _, topN := range topNs {
					for _, min := range mins {
						label := fmt.Sprintf("docs %d query %d %s topN %d min %v", nDocs, qi, p.name, topN, min)
						mustEqualScored(t, label, p.run(qw, topN, min), p.ref(qw, topN, min))
					}
				}
			}
		}
	}
}

func mustEqualScored(t *testing.T, label string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, reference has %d\n got=%v\nwant=%v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d = %+v (bits %x), reference %+v (bits %x)", label, i,
				got[i], math.Float64bits(got[i].Score), want[i], math.Float64bits(want[i].Score))
		}
	}
}

// TestKernelMatchesBruteForceReference is the property test of the scan
// kernel: on seeded random indexes, every combination of query shape,
// limit, threshold and user vector must reproduce the brute-force
// reference bit for bit — documents, order and score bits.
func TestKernelMatchesBruteForceReference(t *testing.T) {
	const beta = 0.25
	for seed := range 6 {
		rng := rand.New(rand.NewSource(int64(seed)))
		nDocs, nTerms := 40+rng.Intn(200), 5+rng.Intn(12)
		ix := randomIndex(rng, nDocs, nTerms)

		user := make([]float64, nTerms-rng.Intn(3)) // sometimes shorter than the term space
		for i := range user {
			user[i] = rng.NormFloat64()
		}
		queries := []map[int]int{
			nil,
			{},
			{0: 3},                      // ubiquitous term only: weightless
			{nTerms - 1: 1},             // unused term only
			{0: 1, 1: 1, nTerms - 1: 2}, // one live term among dead ones
		}
		for range 12 {
			q := map[int]int{}
			for range 1 + rng.Intn(4) {
				q[rng.Intn(nTerms)] += 1 + rng.Intn(2)
			}
			queries = append(queries, q)
		}
		for qi, counts := range queries {
			qw := ix.QueryWeights(counts)
			full := refRank(ix, qw, 0, math.Inf(-1))
			mins := []float64{math.Inf(-1), 0, 2}
			if len(full) > 0 {
				mins = append(mins, full[len(full)/2].Score, full[0].Score, math.Nextafter(full[0].Score, 2))
			}
			fcounts := make(map[int]float64, len(counts))
			for term, c := range counts {
				fcounts[term] = float64(c)
			}
			for _, topN := range []int{-1, 0, 1, 7, len(full), len(full) + 3} {
				mustEqualScored(t, fmt.Sprintf("seed %d query %d topN %d QueryFloat", seed, qi, topN),
					ix.QueryFloat(fcounts, topN), refRank(ix, qw, topN, math.Inf(-1)))
				for _, min := range mins {
					label := fmt.Sprintf("seed %d query %d topN %d min %v", seed, qi, topN, min)
					mustEqualScored(t, label+" shared", ix.RankWeights(qw, topN, min), refRank(ix, qw, topN, min))
					mustEqualScored(t, label+" QueryMin", ix.QueryMin(counts, topN, min), refRank(ix, qw, topN, min))
					mustEqualScored(t, label+" user", ix.RankBlended(qw, user, beta, topN, min), refRankBlended(ix, qw, user, beta, topN, min))
				}
			}
		}
	}
}

// TestRankDominantMatchesBruteForceReference is the property test of the
// dominant-list pass: over datagen.Tiny() and seeded random indexes
// (duplicated documents for ties, empty and ubiquitous-term-only
// documents), queries with zero-weight entries, every topN shape, a
// MinScore grid and a user or none, RankDominant must reproduce the
// doc-by-doc reference bit for bit. Consecutive calls reuse one pooled
// scratch, so a dense query left dirty shows as a wrong score.
func TestRankDominantMatchesBruteForceReference(t *testing.T) {
	const beta = 0.25
	tiny := datagen.Generate(datagen.Tiny()).Clean
	indexes := []*Index{BuildIndex(tiny.ResourceTags(), tiny.Tags.Len())}
	for seed := range 4 {
		rng := rand.New(rand.NewSource(int64(200 + seed)))
		indexes = append(indexes, randomIndex(rng, 40+rng.Intn(200), 5+rng.Intn(12)))
	}
	for ii, ix := range indexes {
		rng := rand.New(rand.NewSource(int64(ii)))
		nTerms := ix.NumTerms()
		user := make([]float64, nTerms)
		for i := range user {
			user[i] = rng.NormFloat64()
		}
		queries := []map[int]float64{nil, {}, {0: 1}, {nTerms - 1: 1}}
		for range 12 {
			counts := map[int]int{}
			for range 1 + rng.Intn(4) {
				counts[rng.Intn(nTerms)] += 1 + rng.Intn(2)
			}
			qw := ix.QueryWeights(counts)
			// A zero-weight entry names a term, and so probes its list,
			// but adds nothing to any dot product.
			t := rng.Intn(nTerms)
			if _, ok := qw[t]; !ok && len(qw) > 0 {
				qw[t] = 0
			}
			queries = append(queries, qw)
		}
		for qi, qw := range queries {
			full := refRankDominant(ix, qw, nil, 0, 0, math.Inf(-1))
			mins := []float64{math.Inf(-1), 0, 2}
			if len(full) > 0 {
				mins = append(mins, full[len(full)/2].Score, full[0].Score, math.Nextafter(full[0].Score, 2))
			}
			for _, topN := range []int{-1, 0, 1, 7, len(full), len(full) + 3} {
				for _, min := range mins {
					for _, u := range [][]float64{nil, user} {
						label := fmt.Sprintf("index %d query %d topN %d min %v user %v", ii, qi, topN, min, u != nil)
						mustEqualScored(t, label, ix.RankDominant(qw, u, beta, topN, min), refRankDominant(ix, qw, u, beta, topN, min))
					}
				}
			}
		}
	}
}
