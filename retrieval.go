package cubelsi

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/retrieve"
	"repro/internal/tucker"
)

// WithRetrieval returns a derived engine whose Query path uses the named
// candidate source at depth C instead of the default (the exact source
// over the whole corpus). candidates names the source: "exact" (or "")
// is the inverted-index scan, which scores every matching resource, and
// "concept" probes only the inverted document lists of the query's own
// concepts, skipping documents whose dominant concept the query never
// mentions (sublinear candidate work; what survives keeps its exact
// score and order, see TestRetrievalConceptSourceSubsetOfExact). rerank
// is the candidate depth C: only the source's best C candidates by
// cosine are personalized, thresholded and ranked. 0 keeps every
// candidate, and Query.Rerank / /search?rerank= override it per request.
// WithRetrieval("exact", 0) — or any C ≥ the corpus size — ranks exactly
// as the receiver does. Like every derived snapshot the receiver is not
// mutated; the returned engine is immutable and safe for concurrent
// queries.
func (e *Engine) WithRetrieval(candidates string, rerank int) (*Engine, error) {
	if rerank < 0 {
		return nil, fmt.Errorf("%w: WithRetrieval(%q, %d): rerank depth must be ≥ 0", ErrInvalidOptions, candidates, rerank)
	}
	src, err := retrieve.ByName(candidates)
	if err != nil {
		return nil, fmt.Errorf("%w: WithRetrieval(%q, %d): %v", ErrInvalidOptions, candidates, rerank, err)
	}
	p, err := retrieve.New(src, rerank)
	if err != nil {
		return nil, fmt.Errorf("%w: WithRetrieval(%q, %d): %v", ErrInvalidOptions, candidates, rerank, err)
	}
	derived := *e
	derived.retr = p
	return &derived, nil
}

// RetrievalEnabled reports whether the engine was derived with
// WithRetrieval; false means Query uses the default source and depth.
func (e *Engine) RetrievalEnabled() bool { return e.retr != nil }

// RetrievalSource names the candidate source WithRetrieval configured
// ("exact" or "concept"); empty when none was.
func (e *Engine) RetrievalSource() string {
	if e.retr == nil {
		return ""
	}
	return e.retr.SourceName()
}

// RetrievalDepth returns the candidate depth C WithRetrieval configured
// (0 = the entire corpus). Zero also when none was.
func (e *Engine) RetrievalDepth() int {
	if e.retr == nil {
		return 0
	}
	return e.retr.Depth()
}

// UserFactors reports whether the engine carries the compacted
// user-mode factors a WithUser query personalizes through — true for
// freshly built engines and engines loaded from a model saved with
// WithUserFactors.
func (e *Engine) UserFactors() bool { return e.userFactors != nil }

// userLookup lazily indexes user names by row. It is held by pointer so
// every derived snapshot of an engine (shallow copies all) shares the
// one map, built at most once.
type userLookup struct {
	once sync.Once
	idx  map[string]int
}

func (l *userLookup) lookup(users []string, name string) (int, bool) {
	if l == nil {
		return 0, false
	}
	l.once.Do(func() {
		l.idx = make(map[string]int, len(users))
		for i, u := range users {
			if _, dup := l.idx[u]; !dup {
				l.idx[u] = i
			}
		}
	})
	id, ok := l.idx[name]
	return id, ok
}

// userVector resolves a user name to its per-concept affinity row. It
// returns nil — and the query is served unpersonalized, bit-identically
// to one without WithUser — when the name is empty, the engine carries
// no user factors, or the user is unknown. User names are matched
// exactly (they were never case-folded at build time).
func (e *Engine) userVector(name string) []float64 {
	if name == "" || e.userFactors == nil {
		return nil
	}
	id, ok := e.userlk.lookup(e.users, name)
	if !ok {
		return nil
	}
	return e.userFactors.Row(id)
}

// compactUserFactors folds the Tucker user mode into serving shape.
// The reconstructed tensor is F̂[u,t,r] = Σ_{a,b,c} S[a,b,c]·Y⁽¹⁾[u,a]·
// Y⁽²⁾[t,b]·Y⁽³⁾[r,c]; aggregating over resources and grouping tags by
// their distilled concept collapses it to U = Y⁽¹⁾·B·G with
// B[a,b] = Σ_c S[a,b,c]·(Σ_r Y⁽³⁾[r,c]) and
// G[b,k] = Σ_{t: assign[t]=k} Y⁽²⁾[t,b] — one |U|×K matrix whose row u
// is user u's affinity over the K concepts, linear in the vocabularies
// like every other serving section. Rows are ℓ²-normalized so the fixed
// blend weight, not the corpus scale, controls how hard personalization
// pulls; zero rows stay zero. All sums run in ascending index order, so
// the factors are bit-reproducible across builds.
func compactUserFactors(d *tucker.Decomposition, assign []int, k int) *mat.Matrix {
	if d == nil || d.Core == nil || d.Y1 == nil || d.Y2 == nil || d.Y3 == nil || k <= 0 {
		return nil
	}
	j1, j2, j3 := d.Core.Dims()
	s3 := make([]float64, j3)
	rows3, _ := d.Y3.Dims()
	for c := range j3 {
		var sum float64
		for r := range rows3 {
			sum += d.Y3.At(r, c)
		}
		s3[c] = sum
	}
	b := mat.New(j1, j2)
	for a := range j1 {
		for bb := range j2 {
			var sum float64
			for c := range j3 {
				sum += d.Core.At(a, bb, c) * s3[c]
			}
			b.Set(a, bb, sum)
		}
	}
	g := mat.New(j2, k)
	rows2, _ := d.Y2.Dims()
	for t := 0; t < rows2 && t < len(assign); t++ {
		kc := assign[t]
		if kc < 0 || kc >= k {
			continue
		}
		for bb := range j2 {
			g.Add(bb, kc, d.Y2.At(t, bb))
		}
	}
	u := mat.Mul(mat.Mul(d.Y1, b), g)
	rows, cols := u.Dims()
	for i := range rows {
		var n2 float64
		for j := range cols {
			v := u.At(i, j)
			n2 += v * v
		}
		if n2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(n2)
		for j := range cols {
			u.Set(i, j, u.At(i, j)*inv)
		}
	}
	return u
}
