package retrieve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ir"
)

// refRerank is the stage two this package shipped before candidate
// scores were trusted, kept verbatim as the reference: rescore every
// candidate through the forward view whatever score it arrived with,
// blend, threshold, full-sort, truncate.
func refRerank(ix *ir.Index, cands []ir.Scored, req Request) []ir.Scored {
	f := ix.Forward()
	qnorm := ix.QueryNorm(req.Weights)
	sort.Slice(cands, func(a, b int) bool { return cands[a].Doc < cands[b].Doc })
	out := make([]ir.Scored, 0, len(cands))
	for _, cand := range cands {
		score, ok := f.Score(req.Weights, qnorm, cand.Doc)
		if !ok {
			continue
		}
		if req.User != nil {
			score = (1-UserBlend)*score + UserBlend*f.Affinity(req.User, cand.Doc)
		}
		if score < req.MinScore {
			continue
		}
		out = append(out, ir.Scored{Doc: cand.Doc, Score: score})
	}
	refSort(out)
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out
}

func refSort(out []ir.Scored) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Doc < out[b].Doc
	})
}

// refCandidates is brute-force stage one: score every document of the
// collection (or, for the concept source, every document whose dominant
// term the query names) doc by doc through the forward view, full-sort,
// keep the best depth. No posting list and no kernel is involved.
func refCandidates(ix *ir.Index, qw map[int]float64, depth int, conceptOnly bool) []ir.Scored {
	f := ix.Forward()
	qnorm := ix.QueryNorm(qw)
	var out []ir.Scored
	for d := range ix.NumDocs() {
		if conceptOnly {
			if _, probed := qw[f.Dominant(d)]; !probed {
				continue
			}
		}
		if s, ok := f.Score(qw, qnorm, d); ok {
			out = append(out, ir.Scored{Doc: d, Score: s})
		}
	}
	refSort(out)
	if len(out) > depth {
		out = out[:depth]
	}
	return out
}

// refSearch is the whole reference pipeline: depth resolution as
// documented on Request and New, brute-force candidates, reference
// rerank.
func refSearch(ix *ir.Index, configured int, conceptOnly bool, req Request) []ir.Scored {
	if len(req.Weights) == 0 {
		return nil
	}
	depth := req.Depth
	if depth <= 0 {
		depth = configured
	}
	if depth <= 0 || depth > ix.NumDocs() {
		depth = ix.NumDocs()
	}
	return refRerank(ix, refCandidates(ix, req.Weights, depth, conceptOnly), req)
}

// liar is a candidate source outside the package: it selects the exact
// top-depth documents but reports deliberately wrong scores, in the
// wrong order, so a pipeline that trusted them would rank garbage.
type liar struct{}

func (liar) Name() string { return "liar" }
func (liar) Candidates(ix *ir.Index, qw map[int]float64, depth int) []ir.Scored {
	cands := ix.RankWeights(qw, depth, math.Inf(-1))
	for i := range cands {
		cands[i].Score = float64(cands[i].Doc%7) - 3
	}
	return cands
}

// randomIndex draws a seeded index with exact score ties (duplicated
// documents), zero-norm documents (empty, or holding only the
// ubiquitous term 0) and an unused last term.
func randomIndex(rng *rand.Rand, nDocs, nTerms int) *ir.Index {
	docs := make([]map[int]int, nDocs)
	for d := range docs {
		doc := map[int]int{}
		switch {
		case d > 0 && rng.Intn(4) == 0:
			for t, c := range docs[rng.Intn(d)] {
				doc[t] = c
			}
		case rng.Intn(10) == 0:
		default:
			for range 1 + rng.Intn(4) {
				doc[1+rng.Intn(nTerms-2)] += 1 + rng.Intn(3)
			}
		}
		doc[0] = 1
		docs[d] = doc
	}
	return ir.BuildIndex(docs, nTerms)
}

func mustEqualScored(t *testing.T, label string, got, want []ir.Scored) {
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

// TestSearchMatchesBruteForceReference is the property test of the
// pipeline (ROADMAP item 9a's first slice): over the datagen.Tiny()
// corpus and seeded random indexes, every combination of source, depth
// (configured and per request), limit, threshold and user must return
// exactly the reference's []ir.Scored — documents, order, score bits.
func TestSearchMatchesBruteForceReference(t *testing.T) {
	type corpus struct {
		name string
		ix   *ir.Index
	}
	tiny := datagen.Generate(datagen.Tiny()).Clean
	corpora := []corpus{{"tiny", ir.BuildIndex(tiny.ResourceTags(), tiny.Tags.Len())}}
	for seed := range 4 {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		corpora = append(corpora, corpus{fmt.Sprintf("random%d", seed), randomIndex(rng, 30+rng.Intn(150), 5+rng.Intn(10))})
	}
	sources := []struct {
		source      Source
		conceptOnly bool
	}{{Exact(), false}, {Concept(), true}, {liar{}, false}}

	for ci, c := range corpora {
		ix := c.ix
		rng := rand.New(rand.NewSource(int64(ci)))
		nTerms, nDocs := ix.NumTerms(), ix.NumDocs()
		user := make([]float64, nTerms)
		for i := range user {
			user[i] = rng.NormFloat64()
		}
		queries := []map[int]int{nil, {0: 1}, {nTerms - 1: 2}}
		for range 10 {
			q := map[int]int{}
			for range 1 + rng.Intn(3) {
				q[rng.Intn(nTerms)] += 1 + rng.Intn(2)
			}
			queries = append(queries, q)
		}
		for qi, counts := range queries {
			qw := ix.QueryWeights(counts)
			full := refSearch(ix, 0, false, Request{Weights: qw, MinScore: math.Inf(-1)})
			mins := []float64{math.Inf(-1), 0, 2}
			if len(full) > 0 {
				mins = append(mins, full[len(full)/2].Score)
			}
			for _, src := range sources {
				for _, configured := range []int{0, 1, 5, nDocs, nDocs + 9} {
					p, err := New(src.source, configured)
					if err != nil {
						t.Fatal(err)
					}
					for _, reqDepth := range []int{0, 3, nDocs} {
						for _, limit := range []int{0, 1, 4, len(full) + 2} {
							for _, min := range mins {
								for _, u := range [][]float64{nil, user} {
									req := Request{Weights: qw, Limit: limit, MinScore: min, Depth: reqDepth, User: u}
									label := fmt.Sprintf("%s query %d source %s C=%d depth=%d limit=%d min=%v user=%v",
										c.name, qi, src.source.Name(), configured, reqDepth, limit, min, u != nil)
									mustEqualScored(t, label, p.Search(ix, req), refSearch(ix, configured, src.conceptOnly, req))
								}
							}
						}
					}
				}
			}
		}
	}
}
