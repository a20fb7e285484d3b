// Package retrieve plans how a query is answered over an ir.Index: which
// candidate source selects documents, how many of them (the depth C)
// survive the selection, and how the optional user-mode bias, the
// MinScore threshold and the Limit apply to what is left. Every
// request of the serving stack runs through a Pipeline; scoring itself
// happens once, in the index's scan kernel (ir.Index.RankBlended), its
// dominant-list pass (ir.Index.RankDominant) or the doc-major forward
// view (ir.Forward.Score), which agree to the bit because all three
// accumulate matched products in ascending term order and divide by the
// same norms.
//
// The plan a Pipeline picks:
//
//   - a shared request (no User) on either built-in source, or a
//     personalised one on the exact source at a depth covering the corpus
//     (the default): one kernel call with the blend, the threshold and
//     the limit folded in — no candidate list, no second pass;
//   - a personalised request on the exact source at a smaller depth, or
//     on the concept source: the source selects up to C candidates by
//     their Equation 4 cosine, and stage two only blends, filters and
//     orders them — their scores are already exact and are not
//     recomputed;
//   - any other Source: its scores are taken as selection scores only and
//     every candidate is rescored through the forward view first.
package retrieve

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Source generates stage-one candidates for a query. Implementations
// must return each document at most once. The scores of a Source
// implemented outside this package are its own (possibly approximate)
// selection scores and never survive into the final ranking: the
// pipeline rescores every such candidate exactly. The built-in exact
// and concept sources return the Equation 4 cosine itself, best-first,
// and the pipeline keeps those scores as they are.
type Source interface {
	// Name identifies the source in configuration and stats.
	Name() string
	// Candidates returns up to depth candidates for the tf-idf query
	// vector, best-first under the source's selection order. depth is
	// pre-clamped to [1, NumDocs]. The returned slice becomes the
	// pipeline's, which filters and reorders it in place.
	Candidates(ix *ir.Index, qw map[int]float64, depth int) []ir.Scored
}

// exactSource is the exhaustive candidate generator: the index's scan
// kernel, unthresholded, keeping the best depth documents.
type exactSource struct{}

func (exactSource) Name() string { return "exact" }

func (exactSource) Candidates(ix *ir.Index, qw map[int]float64, depth int) []ir.Scored {
	return ix.RankWeights(qw, depth, math.Inf(-1))
}

// Exact returns the exhaustive candidate source — every matching
// document is scored, so the pipeline's ranking quality is bounded only
// by the depth, never by candidate recall.
func Exact() Source { return exactSource{} }

// conceptSource probes only the dominant-term document lists of the
// query's own concepts (ir.Index.RankDominant): every document whose
// dominant concept (its largest-weight term) appears in the query is
// scored exactly and the best depth survive. Documents the query reaches
// only through a non-dominant concept are skipped — the recall the
// benchmark's retrieve.recall_at_10 and quality_ndcg10 measure on
// wide_sublinear.
type conceptSource struct{}

func (conceptSource) Name() string { return "concept" }

func (conceptSource) Candidates(ix *ir.Index, qw map[int]float64, depth int) []ir.Scored {
	return ix.RankDominant(qw, nil, 0, depth, math.Inf(-1))
}

// Concept returns the concept-probing candidate source.
func Concept() Source { return conceptSource{} }

// ByName resolves a configured candidate-source name; the empty string
// means exact.
func ByName(name string) (Source, error) {
	switch name {
	case "", "exact":
		return Exact(), nil
	case "concept":
		return Concept(), nil
	}
	return nil, fmt.Errorf("retrieve: unknown candidate source %q (want %q or %q)", name, "exact", "concept")
}

// scoresExactly reports whether a source's candidate scores are already
// the Equation 4 cosine — true of the two built-in sources, which score
// through the index's scan and dominant-list passes. Every other source
// is rescored.
func scoresExactly(s Source) bool {
	switch s.(type) {
	case exactSource, conceptSource:
		return true
	}
	return false
}

// UserBlend is β, the weight of the user-mode affinity in a
// personalized score: (1−β)·cosine + β·affinity. Affinities are
// computed from ℓ²-normalized user-factor rows, so a fixed blend keeps
// personalization a bias, never a takeover.
const UserBlend = 0.25

// Request is one retrieval request against an index.
type Request struct {
	// Weights is the query's tf-idf vector over the index terms
	// (ir.Index.QueryWeights output).
	Weights map[int]float64
	// Limit caps the result count; zero or negative returns every match.
	Limit int
	// MinScore drops results whose final — after any user bias — score
	// is below it.
	MinScore float64
	// Depth overrides the pipeline's candidate depth C for this request;
	// zero or negative keeps the configured depth.
	Depth int
	// User is the optional per-term affinity vector of the requesting
	// user (a compacted user-factor row). nil serves the shared ranking:
	// no blend is applied, not even a zero one.
	User []float64
}

// Pipeline is a configured retrieval plan: a candidate source and a
// default depth C. The zero depth covers the entire corpus. A Pipeline
// is immutable and safe for concurrent Search calls.
type Pipeline struct {
	source Source
	depth  int
}

// New builds a pipeline over a candidate source (nil means exact) with
// a default depth C (0 = the entire corpus; negative is invalid).
func New(source Source, depth int) (*Pipeline, error) {
	if depth < 0 {
		return nil, fmt.Errorf("retrieve: rerank depth must be ≥ 0, got %d", depth)
	}
	if source == nil {
		source = Exact()
	}
	return &Pipeline{source: source, depth: depth}, nil
}

var defaultPipeline = &Pipeline{source: exactSource{}}

// Default returns the pipeline of an engine configured without one:
// exact candidates at full depth, which Search answers with a single
// kernel call.
func Default() *Pipeline { return defaultPipeline }

// SourceName returns the configured candidate source's name.
func (p *Pipeline) SourceName() string { return p.source.Name() }

// Depth returns the configured default depth (0 = full corpus).
func (p *Pipeline) Depth() int { return p.depth }

// Search answers one request: the best Limit documents at or above
// MinScore in (score desc, doc asc) order, drawn from the up to C
// candidates the source selects, scored by Equation 4 and — when
// req.User is set — blended with the user's affinity before the
// threshold.
func (p *Pipeline) Search(ix *ir.Index, req Request) []ir.Scored {
	if len(req.Weights) == 0 {
		return nil
	}
	depth := req.Depth
	if depth <= 0 {
		depth = p.depth
	}
	if depth <= 0 || depth > ix.NumDocs() {
		depth = ix.NumDocs()
	}
	// One kernel call whenever the selection score is the final score:
	// every match is a candidate (the exact source at covering depth), or
	// no blend applies. Then MinScore commutes with the top-C cut and the
	// Limit is a shallower cut of the same order.
	topN := depth
	if req.Limit > 0 && req.Limit < depth {
		topN = req.Limit
	}
	switch p.source.(type) {
	case exactSource:
		if req.User == nil || depth == ix.NumDocs() {
			return ix.RankBlended(req.Weights, req.User, UserBlend, topN, req.MinScore)
		}
	case conceptSource:
		if req.User == nil {
			return ix.RankDominant(req.Weights, nil, 0, topN, req.MinScore)
		}
	}
	cands := p.source.Candidates(ix, req.Weights, depth)
	if !scoresExactly(p.source) {
		cands = rescore(ix, cands, req.Weights)
	}
	return finish(ix, cands, req)
}

// rescore replaces candidate scores with the exact cosine, computed
// through the doc-major forward view — bit-identical to the inverted
// scan — and drops candidates the query does not match.
func rescore(ix *ir.Index, cands []ir.Scored, qw map[int]float64) []ir.Scored {
	f := ix.Forward()
	qnorm := ix.QueryNorm(qw)
	out := cands[:0]
	for _, cand := range cands {
		if score, ok := f.Score(qw, qnorm, cand.Doc); ok {
			out = append(out, ir.Scored{Doc: cand.Doc, Score: score})
		}
	}
	return out
}

// finish is stage two over exactly scored candidates: blend in the user
// bias, apply MinScore to the final score, order, and cut to Limit.
func finish(ix *ir.Index, cands []ir.Scored, req Request) []ir.Scored {
	var f *ir.Forward
	if req.User != nil {
		f = ix.Forward()
	}
	out := cands[:0]
	for _, cand := range cands {
		score := cand.Score
		if f != nil {
			score = f.Blend(score, req.User, UserBlend, cand.Doc)
		}
		if score < req.MinScore {
			continue
		}
		out = append(out, ir.Scored{Doc: cand.Doc, Score: score})
	}
	ir.SortScoredDesc(out)
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out
}
