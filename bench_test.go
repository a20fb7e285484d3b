// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VI). Each benchmark exercises the code path that
// regenerates the corresponding result; `go test -bench=. -benchmem`
// therefore reproduces the full evaluation's compute profile. The
// experiment *outputs* (the tables themselves) come from cmd/experiments
// and are recorded in EXPERIMENTS.md.
package cubelsi

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/distance"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// benchSetup lazily builds one shared Setup (Tiny-scale corpus keeps the
// default bench run fast; the full paper-analogue corpora are driven by
// cmd/experiments).
var (
	benchOnce sync.Once
	benchS    *experiments.Setup
)

func getBenchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchS = experiments.NewSetup(datagen.Tiny())
		benchS.NumQueries = 32
		// Force-build the cached artifacts outside the timed region.
		benchS.Pipeline()
		benchS.CubeSimDistances()
		benchS.LSIDistances()
		benchS.Rankers()
		benchS.Queries()
	})
	return benchS
}

// BenchmarkTable1_PairJudgments measures the Table I pipeline: curated
// pair selection plus relatedness calls from two distance matrices.
func BenchmarkTable1_PairJudgments(b *testing.B) {
	s := getBenchSetup(b)
	b.ResetTimer()
	for range b.N {
		experiments.Table1(s, 3)
	}
}

// BenchmarkTable2_CleaningPipeline measures the Section VI-A cleaning
// pass (system tags, lowercasing, iterative min-support pruning) that
// produces Table II's cleaned rows.
func BenchmarkTable2_CleaningPipeline(b *testing.B) {
	s := getBenchSetup(b)
	raw := s.Corpus.Raw
	b.ResetTimer()
	for range b.N {
		tagging.Clean(raw, tagging.DefaultCleanOptions())
	}
}

// BenchmarkTable3_TagDistanceAccuracy measures the JCNavg/Rankavg scoring
// of one method's distance matrix against the lexicon ground truth.
func BenchmarkTable3_TagDistanceAccuracy(b *testing.B) {
	s := getBenchSetup(b)
	dists := s.Pipeline().Distances
	tax := s.Corpus.Gen.Taxonomy
	b.ResetTimer()
	for range b.N {
		eval.TagDistanceAccuracy(s.Corpus.Clean, dists, tax)
	}
}

// BenchmarkTable4_ConceptDistillation measures spectral clustering of the
// pairwise tag distances into concepts (Section V).
func BenchmarkTable4_ConceptDistillation(b *testing.B) {
	s := getBenchSetup(b)
	dists := s.Pipeline().Distances
	opts := s.SpectralOpts()
	b.ResetTimer()
	for range b.N {
		cluster.Spectral(dists, opts)
	}
}

// BenchmarkTable5_CubeLSIPreprocessing measures the CubeLSI side of
// Table V: tensor build, Tucker/ALS decomposition, and the Theorem 2
// all-pairs distance computation.
func BenchmarkTable5_CubeLSIPreprocessing(b *testing.B) {
	s := getBenchSetup(b)
	ds := s.Corpus.Clean
	b.ResetTimer()
	for range b.N {
		f := ds.Tensor()
		dec := tucker.Decompose(f, tucker.Options{
			J1: s.J1, J2: s.J2, J3: s.J3, MaxSweeps: s.Sweeps, Seed: uint64(s.Seed),
		})
		distance.NewCubeLSI(dec).Pairwise()
	}
}

// BenchmarkTable5_CubeSimDensePreprocessing measures the CubeSim side of
// Table V: the paper's dense slice-Frobenius pass over all tag pairs.
func BenchmarkTable5_CubeSimDensePreprocessing(b *testing.B) {
	s := getBenchSetup(b)
	f := s.Corpus.Clean.Tensor()
	b.ResetTimer()
	for range b.N {
		distance.CubeSimDense(f, nil)
	}
}

// BenchmarkTable6_QueryCubeLSI measures one online CubeLSI query (concept
// mapping + cosine over the inverted index), the left column of Table VI.
func BenchmarkTable6_QueryCubeLSI(b *testing.B) {
	s := getBenchSetup(b)
	p := s.Pipeline()
	queries := s.Queries()
	b.ResetTimer()
	for i := range b.N {
		p.Query(queries[i%len(queries)].Tags, 20)
	}
}

// BenchmarkTable6_QueryFolkRank measures one FolkRank query (a full
// preference-biased propagation), the right column of Table VI.
func BenchmarkTable6_QueryFolkRank(b *testing.B) {
	s := getBenchSetup(b)
	ranker := pickRanker(s, "FolkRank")
	queries := s.Queries()
	b.ResetTimer()
	for i := range b.N {
		ranker.Query(queries[i%len(queries)].Tags, 20)
	}
}

// BenchmarkTable7_MemoryAccounting measures the Table VII computation
// (storage arithmetic for F̂ vs S and Y⁽²⁾).
func BenchmarkTable7_MemoryAccounting(b *testing.B) {
	s := getBenchSetup(b)
	b.ResetTimer()
	for range b.N {
		experiments.Table7(s)
	}
}

// BenchmarkFigure4_NDCGWorkload measures scoring the full query workload
// with NDCG@N for one ranking method (one curve of Figure 4).
func BenchmarkFigure4_NDCGWorkload(b *testing.B) {
	s := getBenchSetup(b)
	ranker := pickRanker(s, "CubeLSI")
	queries := s.Queries()
	tagLists := make([][]string, len(queries))
	for i, q := range queries {
		tagLists[i] = q.Tags
	}
	judge := func(qi, r int) int { return s.Corpus.Relevance(queries[qi], r) }
	n := s.Corpus.Clean.Resources.Len()
	b.ResetTimer()
	for range b.N {
		eval.NDCGCurve(ranker, tagLists, judge, n, experiments.Figure4Cutoffs)
	}
}

// BenchmarkFigure5_DecompositionAtRatio measures one point of Figure 5's
// reduction-ratio sweep: a full offline build at c₁=c₂=c₃=8 (scaled from
// the paper's 50 to the corpus size).
func BenchmarkFigure5_DecompositionAtRatio(b *testing.B) {
	s := getBenchSetup(b)
	st := s.Corpus.Clean.Stats()
	j1, j2, j3 := tucker.FromRatios(st.Users, st.Tags, st.Resources, 8, 8, 8)
	b.ResetTimer()
	for range b.N {
		if _, err := core.Build(context.Background(), s.Corpus.Clean, core.Options{
			Tucker:   tucker.Options{J1: j1, J2: j2, J3: j3, MaxSweeps: s.Sweeps, Seed: uint64(s.Seed)},
			Spectral: cluster.SpectralOptions{K: minIntBench(s.K, j2), Seed: s.Seed},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBuild measures the public API's end-to-end offline build
// (the quickstart path).
func BenchmarkEngineBuild(b *testing.B) {
	assignments, cfg := tinyCorpus()
	b.ResetTimer()
	for range b.N {
		if _, err := Build(context.Background(), FromAssignments(assignments), WithConfig(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSearch measures a single public-API query.
func BenchmarkEngineSearch(b *testing.B) {
	eng := tinyEngine(b)
	tags := eng.Tags()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		eng.Query(NewQuery([]string{tags[i%len(tags)]}, WithLimit(10)))
	}
}

// BenchmarkEngineSearchUser is BenchmarkEngineSearch personalised: the
// same scan with one affinity dot product per matched resource.
func BenchmarkEngineSearchUser(b *testing.B) {
	eng := tinyEngine(b)
	tags := eng.Tags()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		eng.Query(NewQuery([]string{tags[i%len(tags)]}, WithLimit(10), WithUser(eng.users[i%len(eng.users)])))
	}
}

// BenchmarkEngineSearchBatch measures one eight-query SearchBatch, the
// POST /search batch path: the queries run in order on the calling
// goroutine.
func BenchmarkEngineSearchBatch(b *testing.B) {
	eng := tinyEngine(b)
	tags := eng.Tags()
	batch := make([]Query, 8)
	for i := range batch {
		batch[i] = NewQuery([]string{tags[i*len(tags)/len(batch)]}, WithLimit(10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := eng.SearchBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func pickRanker(s *experiments.Setup, name string) eval.Queryable {
	for _, r := range s.Rankers() {
		if r.Name() == name {
			return r
		}
	}
	panic("ranker not found: " + name)
}

func minIntBench(a, b int) int {
	if a < b {
		return a
	}
	return b
}
