package cubelsi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/ir"
	"repro/internal/retrieve"
)

// BatchError reports one recovered SearchBatch query panic: which query
// faulted, the panic value, and the goroutine stack captured at
// recovery — the piece an operator needs to locate the corrupted model
// or engine bug behind it. Error prints only the index and value (safe
// to surface to clients); the stack is on the struct for server-side
// logs.
type BatchError struct {
	// Query is the index of the panicking query in the batch.
	Query int
	// Value is the recovered panic value.
	Value any
	// Stack is the calling goroutine's stack at the recovery point.
	Stack []byte
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("cubelsi: batch query %d panicked: %v", e.Query, e.Value)
}

// Query is one search request: tag keywords plus ranking options. The
// zero value with only Tags set ranks every matching resource.
type Query struct {
	// Tags are the query keywords. Unknown tags are ignored.
	Tags []string `json:"tags"`
	// Limit caps the number of results; zero or negative returns every
	// matching resource.
	Limit int `json:"limit,omitempty"`
	// MinScore drops results whose final score is below it: the cosine
	// similarity, or its blend with the user's affinity when User
	// personalizes the query.
	MinScore float64 `json:"min_score,omitempty"`
	// Concepts adds concept ids directly to the query vector, alongside
	// the concepts the tags map to — the hook for soft-concept scoring
	// and concept-browsing front ends. Out-of-range ids are ignored, and
	// repeated ids count once: listing a concept twice must not silently
	// double its weight.
	Concepts []int `json:"concepts,omitempty"`
	// Rerank overrides the engine's candidate depth C for this request
	// (WithRetrieval): only the best Rerank candidates of the engine's
	// candidate source — the exact source unless WithRetrieval chose
	// another — are personalized, thresholded and ranked. Zero keeps the
	// engine's configured depth.
	Rerank int `json:"rerank,omitempty"`
	// User personalizes the ranking through the model's compacted
	// user-mode factors: each candidate's score is blended with the
	// named user's concept affinities. Empty serves the shared ranking;
	// an unknown user, or a model saved without WithUserFactors, also
	// serves the shared ranking, bit-identically.
	User string `json:"user,omitempty"`
}

// QueryOption configures a Query.
type QueryOption func(*Query)

// WithLimit caps the result count (zero or negative = unlimited).
func WithLimit(n int) QueryOption {
	return func(q *Query) { q.Limit = n }
}

// WithMinScore drops results scoring below s.
func WithMinScore(s float64) QueryOption {
	return func(q *Query) { q.MinScore = s }
}

// WithConcepts adds concept ids directly to the query vector.
// Out-of-range ids are ignored and duplicates count once.
func WithConcepts(ids ...int) QueryOption {
	return func(q *Query) { q.Concepts = append(q.Concepts, ids...) }
}

// WithRerank overrides the candidate depth C for this query (see
// Query.Rerank); zero keeps the engine's configured depth.
func WithRerank(c int) QueryOption {
	return func(q *Query) { q.Rerank = c }
}

// WithUser personalizes the query through the model's user-mode factors
// (see Query.User); the empty string serves the shared ranking.
func WithUser(id string) QueryOption {
	return func(q *Query) { q.User = id }
}

// NewQuery builds a Query over the given tags.
func NewQuery(tags []string, opts ...QueryOption) Query {
	q := Query{Tags: tags}
	for _, o := range opts {
		o(&q)
	}
	return q
}

// Query answers one search request: the tags are case-folded the same
// way the vocabulary was, mapped to distilled concepts (plus any
// explicitly listed concept ids, deduplicated), and resources are
// ranked by cosine similarity in concept space (Equation 4). When both
// Limit and MinScore are set, the threshold is applied before the
// truncation, so the result is the Limit best resources at or above
// MinScore — whenever at least Limit resources pass the threshold,
// exactly Limit come back.
//
// Every request runs the engine's retrieval pipeline (WithRetrieval; by
// default the exact inverted-index scan over the whole corpus): its
// candidate source selects up to C candidates by that cosine, a User
// the model carries factors for blends each candidate's score with the
// user's concept affinities, and MinScore and Limit apply to the final,
// possibly personalized, score. At the default full depth all of that
// is one scan.
func (e *Engine) Query(q Query) []Result {
	counts := make(map[int]int, len(q.Tags))
	for _, name := range q.Tags {
		if e.lowercase {
			name = strings.ToLower(name)
		}
		if id, ok := e.tags.Lookup(name); ok {
			counts[id]++
		}
	}
	concepts := ir.MapToConcepts(counts, e.assign)
	if len(q.Concepts) > 0 {
		seen := make(map[int]bool, len(q.Concepts))
		for _, c := range q.Concepts {
			if c >= 0 && c < e.k && !seen[c] {
				seen[c] = true
				concepts[c]++
			}
		}
	}

	p := e.retr
	if p == nil {
		p = retrieve.Default()
	}
	scored := p.Search(e.index, retrieve.Request{
		Weights:  e.index.QueryWeights(concepts),
		Limit:    q.Limit,
		MinScore: q.MinScore,
		Depth:    q.Rerank,
		User:     e.userVector(q.User),
	})
	return e.results(scored)
}

// results maps ranked documents back to resource names.
func (e *Engine) results(scored []ir.Scored) []Result {
	out := make([]Result, 0, len(scored))
	for _, s := range scored {
		out = append(out, Result{Resource: e.resources.Name(s.Doc), Score: s.Score})
	}
	return out
}

// SearchBatch answers many queries at once. Results arrive in query
// order and are identical to issuing each Query individually — the
// engine is immutable, so batching never changes rankings.
//
// The queries run in order on the caller's goroutine. A query costs
// microseconds, so a per-batch worker pool would spend on goroutines
// and channel hand-offs what it saves, and its callers — server
// handlers — already run one goroutine per request: concurrency comes
// from concurrent requests, not from splitting one.
//
// A query whose evaluation panics (a corrupted model, an engine bug)
// does not kill the process mid-batch: the panic is recovered, the
// query's slot comes back nil, every other query still completes, and
// the joined error carries one *BatchError per failed query — index,
// panic value, and the stack captured at recovery. The error is nil
// when every query succeeded.
func (e *Engine) SearchBatch(queries []Query) ([][]Result, error) {
	out := make([][]Result, len(queries))
	var errs []error
	for i, q := range queries {
		func() {
			defer func() {
				if r := recover(); r != nil {
					errs = append(errs, &BatchError{Query: i, Value: r, Stack: debug.Stack()})
				}
			}()
			out[i] = e.Query(q)
		}()
	}
	return out, errors.Join(errs...)
}
