// Package ir implements the vector-space retrieval model of Section III:
// documents (resources) and queries represented as sparse tf-idf vectors
// over a term space (raw tags for the BOW baseline, distilled concepts
// for CubeLSI and friends), an inverted index, and cosine-similarity
// ranking (Equations 1–4).
package ir

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/topk"
)

// Scored is one ranked result.
type Scored struct {
	Doc   int
	Score float64
}

// Index is an inverted tf-idf index over a fixed document collection.
type Index struct {
	numTerms int
	numDocs  int
	df       []int // document frequency per term
	// postings[t] lists (doc, weight) pairs for term t, where weight is
	// the document's tf-idf weight for t.
	postings [][]posting
	norms    []float64 // per-document vector norms

	// fwd is the lazily built doc-major view of the postings (Forward),
	// shared by every engine snapshot holding this index.
	fwdOnce sync.Once
	fwd     *Forward

	// scratch pools the ranking passes' working memory (*scanScratch),
	// shared like fwd by every engine snapshot holding this index.
	scratch sync.Pool
}

type posting struct {
	doc    int
	weight float64
}

// BuildIndex constructs the index from per-document term counts:
// docs[d][t] = c(t, d), the occurrence count of term t in document d
// (for resources, the number of users who assigned the term).
//
// Weights follow Equations 1–2: w(t, d) = tf(t, d) · log(N / n_t) with
// tf normalized by the document's total count. Terms that appear in every
// document receive weight zero (log 1), exactly as the formula dictates.
func BuildIndex(docs []map[int]int, numTerms int) *Index {
	fdocs := make([]map[int]float64, len(docs))
	for d, counts := range docs {
		fd := make(map[int]float64, len(counts))
		for t, c := range counts {
			fd[t] = float64(c)
		}
		fdocs[d] = fd
	}
	return BuildIndexFloat(fdocs, numTerms)
}

// BuildIndexFloat is BuildIndex over fractional term counts, as produced
// by the soft concept mapping (footnote 5's extension): a document's
// "count" for a concept may be a weighted sum of tag memberships.
func BuildIndexFloat(docs []map[int]float64, numTerms int) *Index {
	ix := &Index{
		numTerms: numTerms,
		numDocs:  len(docs),
		df:       make([]int, numTerms),
		postings: make([][]posting, numTerms),
		norms:    make([]float64, len(docs)),
	}
	for _, counts := range docs {
		for t, c := range counts {
			ix.checkTerm(t)
			if c > 0 {
				ix.df[t]++
			}
		}
	}
	n := float64(len(docs))
	for d, counts := range docs {
		// Iterate terms in sorted order so floating-point accumulation —
		// the document total here as much as the norm below — is
		// deterministic across runs (map order is randomized).
		terms := sortedTerms(counts)
		var total float64
		for _, t := range terms {
			total += counts[t]
		}
		if total == 0 {
			continue
		}
		var norm2 float64
		for _, t := range terms {
			c := counts[t]
			if c <= 0 || ix.df[t] == 0 {
				continue
			}
			w := (c / total) * math.Log(n/float64(ix.df[t]))
			if w == 0 {
				continue
			}
			ix.postings[t] = append(ix.postings[t], posting{doc: d, weight: w})
			norm2 += w * w
		}
		ix.norms[d] = math.Sqrt(norm2)
	}
	for t := range ix.postings {
		sort.Slice(ix.postings[t], func(a, b int) bool { return ix.postings[t][a].doc < ix.postings[t][b].doc })
	}
	return ix
}

func (ix *Index) checkTerm(t int) {
	if t < 0 || t >= ix.numTerms {
		panic(fmt.Sprintf("ir: term %d out of range [0,%d)", t, ix.numTerms))
	}
}

// NumDocs returns the collection size N.
func (ix *Index) NumDocs() int { return ix.numDocs }

// NumTerms returns the term-space size.
func (ix *Index) NumTerms() int { return ix.numTerms }

// DocFreq returns n_t, the number of documents containing term t.
func (ix *Index) DocFreq(t int) int {
	ix.checkTerm(t)
	return ix.df[t]
}

// QueryWeights converts raw query term counts into the query's tf-idf
// vector using the same weighting as documents (Section III applies the
// identical transformation to queries).
func (ix *Index) QueryWeights(counts map[int]int) map[int]float64 {
	var total int
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	n := float64(ix.numDocs)
	out := make(map[int]float64, len(counts))
	for t, c := range counts {
		ix.checkTerm(t)
		if ix.df[t] == 0 {
			continue // term absent from the collection: contributes nothing
		}
		w := (float64(c) / float64(total)) * math.Log(n/float64(ix.df[t]))
		if w != 0 {
			out[t] = w
		}
	}
	return out
}

// sortedTerms returns the keys of a term-count map in ascending order.
func sortedTerms[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sort.Ints(keys)
	return keys
}

// Query ranks all matching documents by cosine similarity (Equation 4)
// against the query counts and returns the top results in descending
// score order (ties broken by document id for determinism). topN ≤ 0
// returns every document with a positive score.
func (ix *Index) Query(counts map[int]int, topN int) []Scored {
	return ix.QueryMin(counts, topN, math.Inf(-1))
}

// QueryMin is Query with a score threshold applied before the topN
// truncation: documents scoring below minScore (strictly — a document at
// exactly minScore is kept) never enter the bounded selection heap, so
// the result is the topN best documents at or above the threshold.
// Applying a threshold after truncating would instead undershoot topN
// whenever the selection and filter disagree; threading it into the heap
// keeps the two composable by construction and skips the heap work for
// below-threshold documents.
func (ix *Index) QueryMin(counts map[int]int, topN int, minScore float64) []Scored {
	return ix.RankWeights(ix.QueryWeights(counts), topN, minScore)
}

// QueryFloat is Query over fractional term counts (soft concept mapping).
func (ix *Index) QueryFloat(counts map[int]float64, topN int) []Scored {
	// Sorted iteration keeps the floating-point total — and with it the
	// query weights — bit-identical across runs.
	var total float64
	for _, t := range sortedTerms(counts) {
		total += counts[t]
	}
	if total == 0 {
		return nil
	}
	n := float64(ix.numDocs)
	qw := make(map[int]float64, len(counts))
	for t, c := range counts {
		ix.checkTerm(t)
		if c <= 0 || ix.df[t] == 0 {
			continue
		}
		if w := (c / total) * math.Log(n/float64(ix.df[t])); w != 0 {
			qw[t] = w
		}
	}
	return ix.RankWeights(qw, topN, math.Inf(-1))
}

// RankWeights ranks documents against a precomputed tf-idf query vector
// (QueryWeights output). Semantics match QueryMin exactly: the topN
// best documents at or above minScore, ordered (score desc, doc asc);
// topN ≤ 0 returns every match. Pass math.Inf(-1) as minScore for an
// unthresholded candidate scan.
func (ix *Index) RankWeights(qw map[int]float64, topN int, minScore float64) []Scored {
	return ix.rank(qw, nil, 0, topN, minScore)
}

// RankBlended is RankWeights with the user-mode bias folded into the
// scan: each matched document's cosine is replaced by its Forward.Blend
// with the user's affinity before the minScore threshold and the topN
// selection, so both act on the final, personalised score. A nil user
// is RankWeights.
func (ix *Index) RankBlended(qw map[int]float64, user []float64, beta float64, topN int, minScore float64) []Scored {
	return ix.rank(qw, user, beta, topN, minScore)
}

// QueryNorm returns the Euclidean norm of a tf-idf query vector,
// accumulated over sorted terms — bit-identical to the norm the ranking
// paths divide by.
func (ix *Index) QueryNorm(qw map[int]float64) float64 {
	return queryNorm(qw, sortedTerms(qw))
}

// queryNorm sums the squared weights in the order of terms (qw's keys,
// ascending).
func queryNorm(qw map[int]float64, terms []int) float64 {
	var qnorm2 float64
	for _, t := range terms {
		qnorm2 += qw[t] * qw[t]
	}
	return math.Sqrt(qnorm2)
}

// SortScoredDesc orders results best-first: descending score, ties
// broken by ascending document id — the comparator every ranking path
// shares. It is a strict total order over distinct documents, so the
// result does not depend on the input order.
func SortScoredDesc(out []Scored) {
	slices.SortFunc(out, func(a, b Scored) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
}

// scanScratch is one query's working memory, pooled per index and
// filled lazily by whichever pass first needs each part. The inverted
// scan's accumulator: dots[d] sums document d's matched (query weight ×
// document weight) products, seen[d] marks the documents in touched,
// both sized to the collection. The dominant-list pass's dense query:
// query[t] and inQuery[t] over the term space. heap is the bounded
// selection both passes share. Every dense array is all-zero whenever
// the scratch sits in the pool.
//
// A scratch goes back to the pool only on a pass's normal return: a
// panic mid-pass (a corrupt model, recovered by SearchBatch) drops its
// half-cleared scratch instead of poisoning later queries.
type scanScratch struct {
	dots    []float64
	seen    []bool
	touched []int

	query   []float64
	inQuery []bool

	heap *topk.Heap[Scored]
}

func (ix *Index) getScratch() *scanScratch {
	if s, ok := ix.scratch.Get().(*scanScratch); ok {
		return s
	}
	return &scanScratch{heap: topk.New(0, worseScored)}
}

// worseScored is the selection heap's eviction order: lower score, ties
// by higher doc id — a strict total order, so the kept set is exactly
// the first topN of the full descending sort whatever order the
// documents are offered in.
func worseScored(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// selection is the tail every ranking pass shares: it keeps the best
// topN scored documents at or above minScore, in (score desc, doc asc)
// order. The scan loops score each matched document themselves — the
// Equation 4 cosine, blended with the user's affinity when a user is
// set — and test it against the selection's admission floor inline;
// only a document that clears the floor reaches admit.
type selection struct {
	minScore float64
	heap     *topk.Heap[Scored] // the scratch's, when topN cuts the matches
	out      []Scored           // otherwise every kept document
}

// floor is a selection's admission bar. Until the heap is full it is
// (minScore, +∞ doc): the threshold alone. Once it is full it is the
// heap's worst kept document, which only ever improves, so a document
// the floor rejects could never be among the final topN — the kept set
// is exactly the one offering every document to the heap would give.
type floor struct {
	score float64
	doc   int
}

// rejects reports whether the heap would turn document d away: it scores
// below the floor, or ties it with a larger doc id — worseScored's order,
// with the same comparisons, so ±0 and NaN behave as they do in the heap.
func (f floor) rejects(d int, score float64) bool {
	return score < f.score || score == f.score && d > f.doc
}

// newSelection opens the selection over at most n matched documents: the
// scratch's bounded heap when topN cuts them, otherwise collect and
// sort.
func newSelection(s *scanScratch, topN, n int, minScore float64) selection {
	sel := selection{minScore: minScore}
	if topN > 0 && topN < n {
		s.heap.Reset(topN)
		sel.heap = s.heap
	} else {
		sel.out = make([]Scored, 0, n)
	}
	return sel
}

// floor returns the current admission floor.
func (sel *selection) floor() floor {
	if sel.heap != nil {
		if w, ok := sel.heap.Worst(); ok {
			return floor{w.Score, w.Doc}
		}
	}
	return floor{sel.minScore, math.MaxInt}
}

// admit keeps document d, which has cleared the floor, and returns the
// floor the next document must clear.
func (sel *selection) admit(d int, score float64) floor {
	if sel.heap != nil {
		sel.heap.Offer(Scored{Doc: d, Score: score})
	} else {
		sel.out = append(sel.out, Scored{Doc: d, Score: score})
	}
	return sel.floor()
}

// result returns the kept documents best-first, in a slice of their own:
// the heap's storage stays with the scratch.
func (sel *selection) result() []Scored {
	out := sel.out
	if sel.heap != nil {
		out = slices.Clone(sel.heap.Items())
	}
	SortScoredDesc(out)
	return out
}

// rank is the scoring kernel every query lands on: Equation 4 cosine
// ranking of the documents reached through the query terms' posting
// lists, optionally blended with a user affinity.
//
// Terms are visited in ascending order, so each document's dot product
// is summed in ascending term order — the order Forward.Score uses, and
// the reason the two agree to the bit. The accumulator is dense and
// pooled; only the touched entries are cleared, so a query costs
// O(postings scanned), independent of the collection size.
//
// The selection pass has one loop per case so that the unblended loop —
// the shared ranking every unpersonalised query runs — makes no call for
// a document the floor rejects: it is cleared, scored and compared in
// registers. Once the heap is full, only the few documents that beat its
// worst reach admit.
func (ix *Index) rank(qw map[int]float64, user []float64, beta float64, topN int, minScore float64) []Scored {
	if len(qw) == 0 {
		return nil
	}
	terms := sortedTerms(qw)
	qnorm := queryNorm(qw, terms)

	s := ix.getScratch()
	if s.dots == nil {
		s.dots, s.seen = make([]float64, ix.numDocs), make([]bool, ix.numDocs)
	}
	dots, seen, touched := s.dots, s.seen, s.touched[:0]
	for _, t := range terms {
		w := qw[t]
		for _, p := range ix.postings[t] {
			if !seen[p.doc] {
				seen[p.doc] = true
				touched = append(touched, p.doc)
			}
			dots[p.doc] += w * p.weight
		}
	}

	sel := newSelection(s, topN, len(touched), minScore)
	bar, norms := sel.floor(), ix.norms
	if user == nil {
		for _, d := range touched {
			dot := dots[d]
			dots[d], seen[d] = 0, false
			norm := norms[d]
			if norm == 0 {
				continue
			}
			if score := dot / (qnorm * norm); !bar.rejects(d, score) {
				bar = sel.admit(d, score)
			}
		}
	} else {
		fwd := ix.Forward()
		for _, d := range touched {
			dot := dots[d]
			dots[d], seen[d] = 0, false
			norm := norms[d]
			if norm == 0 {
				continue
			}
			if score := fwd.Blend(dot/(qnorm*norm), user, beta, d); !bar.rejects(d, score) {
				bar = sel.admit(d, score)
			}
		}
	}
	out := sel.result()
	s.touched = touched
	ix.scratch.Put(s)
	return out
}

// RankDominant is RankBlended restricted to the documents whose dominant
// term (Forward.Dominant) the query names — the "concept" candidate
// source. It is one pass over those terms' dominant-term lists: each
// listed document is scored through its forward vector against a dense
// copy of the query, its products summed in ascending term order, so
// every score is bit-identical to Forward.Score and to the inverted
// scan; the blend, minScore and topN selection are rank's own. The pass
// costs O(terms of the listed documents) and never touches the
// collection-sized accumulator.
func (ix *Index) RankDominant(qw map[int]float64, user []float64, beta float64, topN int, minScore float64) []Scored {
	if len(qw) == 0 {
		return nil
	}
	terms := sortedTerms(qw)
	qnorm := queryNorm(qw, terms)
	f := ix.Forward()

	s := ix.getScratch()
	if s.query == nil {
		s.query, s.inQuery = make([]float64, ix.numTerms), make([]bool, ix.numTerms)
	}
	query, inQuery := s.query, s.inQuery
	listed := 0
	for _, t := range terms {
		query[t], inQuery[t] = qw[t], true
		listed += len(f.lists[t])
	}

	sel := newSelection(s, topN, listed, minScore)
	bar, norms := sel.floor(), ix.norms
	// The dominant-term lists partition the documents, so none is
	// offered twice, and each listed document matches at least its
	// dominant term.
	for _, t := range terms {
		for _, d := range f.lists[t] {
			norm := norms[d]
			if norm == 0 {
				continue
			}
			var dot float64
			for _, tw := range f.docs[d] {
				if inQuery[tw.Term] {
					dot += query[tw.Term] * tw.Weight
				}
			}
			score := dot / (qnorm * norm)
			if user != nil {
				score = f.Blend(score, user, beta, d)
			}
			if !bar.rejects(d, score) {
				bar = sel.admit(d, score)
			}
		}
	}
	for _, t := range terms {
		query[t], inQuery[t] = 0, false
	}
	out := sel.result()
	ix.scratch.Put(s)
	return out
}

// MapToConcepts rewrites tag counts into concept counts using a hard
// tag→concept assignment (Section V's concept distillation followed by
// the tag-to-concept mapping of Figure 1). Tags with no concept
// (assign[t] < 0) are dropped.
func MapToConcepts(tagCounts map[int]int, assign []int) map[int]int {
	out := make(map[int]int, len(tagCounts))
	for t, c := range tagCounts {
		if t < 0 || t >= len(assign) {
			continue
		}
		k := assign[t]
		if k < 0 {
			continue
		}
		out[k] += c
	}
	return out
}

// MapToConceptsSoft rewrites tag counts into fractional concept counts
// using weighted tag→concept memberships — the soft-clustering extension
// the paper sketches in footnote 5 for the polysemy problem. Each tag
// occurrence spreads its mass across the tag's concepts.
func MapToConceptsSoft(tagCounts map[int]int, weights []map[int]float64) map[int]float64 {
	// A concept cell accumulates mass from several tags, so the float
	// additions must run in a fixed order for the fractional counts to
	// be bit-identical across runs: sorted tags, sorted concepts.
	out := make(map[int]float64, len(tagCounts))
	for _, t := range sortedTerms(tagCounts) {
		if t < 0 || t >= len(weights) {
			continue
		}
		c := tagCounts[t]
		for _, concept := range sortedTerms(weights[t]) {
			out[concept] += float64(c) * weights[t][concept]
		}
	}
	return out
}
