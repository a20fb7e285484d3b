package ir

// Forward is the doc-major view of an index: for each document, its
// (term, weight) pairs in ascending term order, plus each document's
// dominant term and the inverted lists of documents grouped by dominant
// term. It serves what the term-major postings cannot: a document's
// user affinity (Affinity, one dot product over the document's own
// terms — what the scan kernel blends into a personalized score), the
// "concept" candidate source, which probes only the dominant-term lists
// of the query's own terms, and the exact score of one named document
// (Score), for candidates whose source did not score them exactly.
//
// Scores computed through Forward are bit-identical to the inverted
// scan: both accumulate the matched (query term × document weight)
// products in ascending term order and divide by the same query and
// document norms.
type Forward struct {
	ix *Index
	// docs[d] lists document d's (term, weight) pairs, ascending by term.
	docs [][]TermWeight
	// dominant[d] is the term with the largest weight in document d
	// (ties to the lowest term id); -1 for empty documents.
	dominant []int
	// lists[t] lists the documents whose dominant term is t, ascending by
	// document id. The lists partition the non-empty documents.
	lists [][]int
}

// TermWeight is one (term, tf-idf weight) entry of a document vector.
type TermWeight struct {
	Term   int
	Weight float64
}

// Forward returns the doc-major view of the index, building it on first
// use (cached; safe for concurrent callers).
func (ix *Index) Forward() *Forward {
	ix.fwdOnce.Do(func() {
		f := &Forward{
			ix:       ix,
			docs:     make([][]TermWeight, ix.numDocs),
			dominant: make([]int, ix.numDocs),
			lists:    make([][]int, ix.numTerms),
		}
		for d := range f.dominant {
			f.dominant[d] = -1
		}
		// Ascending term-major fill: terms are visited in ascending
		// order, so each document's list comes out in ascending term
		// order — the same accumulation order the inverted scan uses —
		// whatever order a term's postings are kept in.
		for t, ps := range ix.postings {
			for _, p := range ps {
				f.docs[p.doc] = append(f.docs[p.doc], TermWeight{Term: t, Weight: p.weight})
			}
		}
		for d, tws := range f.docs {
			best, bw := -1, 0.0
			for _, tw := range tws {
				if best < 0 || tw.Weight > bw {
					best, bw = tw.Term, tw.Weight
				}
			}
			f.dominant[d] = best
			if best >= 0 {
				f.lists[best] = append(f.lists[best], d)
			}
		}
		ix.fwd = f
	})
	return ix.fwd
}

// Doc returns document d's term vector in ascending term order. The
// returned slice is shared; callers must not mutate it.
func (f *Forward) Doc(d int) []TermWeight { return f.docs[d] }

// Dominant returns the dominant term of document d (-1 if empty).
func (f *Forward) Dominant(d int) int { return f.dominant[d] }

// Score recomputes document d's exact cosine score against a tf-idf
// query vector with norm qnorm (QueryNorm). The boolean is false when
// the document matches no query term (or has a zero norm) — such
// documents never enter a ranking, matching the inverted scan, which
// only scores documents reached through a query term's posting list.
func (f *Forward) Score(qw map[int]float64, qnorm float64, d int) (float64, bool) {
	norm := f.ix.norms[d]
	if norm == 0 {
		return 0, false
	}
	var dot float64
	matched := false
	for _, tw := range f.docs[d] {
		if w, ok := qw[tw.Term]; ok {
			dot += w * tw.Weight
			matched = true
		}
	}
	if !matched {
		return 0, false
	}
	return dot / (qnorm * norm), true
}

// Affinity is the user-mode bias of document d: the inner product of a
// per-term affinity vector (a compacted user-factor row) with the
// document's tf-idf weights, divided by the document norm so it lives
// on the same scale as the cosine scores it blends with. Terms beyond
// len(user) contribute nothing; a zero-norm document scores zero.
func (f *Forward) Affinity(user []float64, d int) float64 {
	norm := f.ix.norms[d]
	if norm == 0 {
		return 0
	}
	var dot float64
	for _, tw := range f.docs[d] {
		if tw.Term < len(user) {
			dot += user[tw.Term] * tw.Weight
		}
	}
	return dot / norm
}

// Blend is the personalized score of document d: its cosine score mixed
// with the user's affinity for it, (1−beta)·cosine + beta·affinity —
// after the cosine's normalisation, so beta weighs two quantities on
// the same scale.
func (f *Forward) Blend(cosine float64, user []float64, beta float64, d int) float64 {
	return (1-beta)*cosine + beta*f.Affinity(user, d)
}
