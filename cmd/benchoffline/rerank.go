package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/retrieve"
)

// rerankPoint is one C-ladder measurement: the concept-probing two-stage
// pipeline at rerank depth C, scored against the exact full-depth
// ranking of the same queries as relevance ground truth (so MAP = 1 and
// precision@10 = 1 mean the pipeline reproduced the exact top-10 for
// every query), plus its p99 latency.
type rerankPoint struct {
	Depth         int     `json:"depth"`
	MAP           float64 `json:"map"`
	PrecisionAt10 float64 `json:"precision_at_10"`
	P99           float64 `json:"p99_ms"`
	Speedup       float64 `json:"speedup_vs_exact"`
}

// rerankScale is the ladder at one vocabulary scale, with the exact
// single-stage baseline it is measured against.
type rerankScale struct {
	Tags      int           `json:"tags"`
	Concepts  int           `json:"concepts"`
	Resources int           `json:"resources"`
	Queries   int           `json:"queries"`
	ExactP99  float64       `json:"exact_p99_ms"`
	Points    []rerankPoint `json:"depths"`
}

// rerankReport is the two-stage retrieval record: quality (MAP,
// precision@10 against the exact ranking) and latency across a rerank
// depth ladder at the tags10k and tags100k scales. The perf gate tracks
// each point's quality scores like recall (absolute drop) and the
// latencies like timings.
type rerankReport struct {
	Scales []rerankScale `json:"scales"`
}

// benchRerank measures the concept-probing two-stage pipeline at the two
// bench vocabulary scales.
func benchRerank() rerankReport {
	rep := rerankReport{}
	for _, params := range []datagen.Params{datagen.Tags10K(), datagen.Tags100K()} {
		rep.Scales = append(rep.Scales, benchRerankScale(params))
	}
	return rep
}

// benchRerankScale generates the preset's corpus, builds the concept
// index the serving path queries (hard tag→concept assignment from the
// generator's ground truth, the same shortcut the ANN bench takes — the
// offline decomposition would dominate the run without changing what the
// retrieval stages see), and walks the depth ladder.
func benchRerankScale(params datagen.Params) rerankScale {
	fmt.Fprintf(os.Stderr, "benchoffline: rerank benchmark, generating %s corpus\n", params.Name)
	corpus := datagen.Generate(params)
	ds := corpus.Clean
	n := ds.Tags.Len()
	k := params.NumConcepts()
	const topN = 10
	const numQueries = 200

	rng := rand.New(rand.NewSource(params.Seed))
	assign := make([]int, n)
	for t := range n {
		if gt := corpus.TagConcepts[t]; len(gt) > 0 {
			assign[t] = gt[0]
		} else {
			assign[t] = rng.Intn(k)
		}
	}
	docs := make([]map[int]int, ds.Resources.Len())
	for r, tagCounts := range ds.ResourceTags() {
		docs[r] = ir.MapToConcepts(tagCounts, assign)
	}
	ix := ir.BuildIndex(docs, k)

	// The query workload, pre-converted to tf-idf weight vectors so the
	// ladder times only the retrieval stages.
	queries := corpus.MakeQueries(numQueries, 3, params.Seed+2000)
	weights := make([]map[int]float64, 0, len(queries))
	for _, q := range queries {
		counts := make(map[int]int, len(q.Tags))
		for _, name := range q.Tags {
			if id, ok := ds.Tags.Lookup(name); ok {
				counts[id]++
			}
		}
		qw := ix.QueryWeights(ir.MapToConcepts(counts, assign))
		if len(qw) == 0 {
			continue
		}
		weights = append(weights, qw)
	}

	sc := rerankScale{
		Tags:      n,
		Concepts:  k,
		Resources: ds.Resources.Len(),
		Queries:   len(weights),
	}

	// Ground truth and latency baseline: the default pipeline, the exact
	// source at full depth.
	fmt.Fprintf(os.Stderr, "benchoffline: rerank benchmark, exact baseline (|T|=%d, |R|=%d)\n", n, sc.Resources)
	exact := retrieve.Default()
	relevant := make([]map[int]bool, len(weights))
	exactLat := make([]float64, 0, len(weights))
	for i, qw := range weights {
		start := time.Now()
		res := exact.Search(ix, retrieve.Request{Weights: qw, Limit: topN})
		exactLat = append(exactLat, float64(time.Since(start).Nanoseconds())/1e6)
		rel := make(map[int]bool, len(res))
		for _, s := range res {
			rel[s.Doc] = true
		}
		relevant[i] = rel
	}
	sc.ExactP99 = p99(exactLat)

	// The depth ladder: candidate recall is bounded by the concept
	// source's dominant-concept probing, then by the depth cut — quality
	// climbs toward the source's ceiling as C grows while stage-two work
	// stays proportional to C.
	for _, depth := range []int{10, 100, 1000} {
		p, err := retrieve.New(retrieve.Concept(), depth)
		if err != nil {
			fatal(err)
		}
		lat := make([]float64, 0, len(weights))
		ranked := make([][]int, len(weights))
		for i, qw := range weights {
			start := time.Now()
			res := p.Search(ix, retrieve.Request{Weights: qw, Limit: topN})
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
			ids := make([]int, len(res))
			for j, s := range res {
				ids[j] = s.Doc
			}
			ranked[i] = ids
		}
		pt := rerankPoint{
			Depth: depth,
			MAP:   eval.MeanAveragePrecision(relevant, ranked),
			P99:   p99(lat),
		}
		var psum float64
		for i := range ranked {
			psum += eval.PrecisionAtK(relevant[i], ranked[i], topN)
		}
		pt.PrecisionAt10 = psum / float64(len(ranked))
		if pt.P99 > 0 {
			pt.Speedup = sc.ExactP99 / pt.P99
		}
		fmt.Fprintf(os.Stderr, "benchoffline: rerank benchmark, C=%d map=%.3f p@10=%.3f p99=%.3fms\n",
			depth, pt.MAP, pt.PrecisionAt10, pt.P99)
		sc.Points = append(sc.Points, pt)
	}
	return sc
}
