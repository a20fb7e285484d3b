package ir

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Posting is one exported (document, weight) pair of an index posting
// list, used by the model codec.
type Posting struct {
	Doc    int
	Weight float64
}

// IndexSnapshot is the complete serializable state of an Index. It
// exists so that a saved model can be served by a process that never saw
// the raw corpus: internal/codec encodes snapshots, not live indexes.
type IndexSnapshot struct {
	NumTerms int
	NumDocs  int
	DF       []int
	Postings [][]Posting
	Norms    []float64
}

// Snapshot copies the index state into its serializable form. Each
// posting list is written in doc-id order, whatever order the index
// keeps it in, so the serialized form depends only on the index's
// contents.
func (ix *Index) Snapshot() *IndexSnapshot {
	s := &IndexSnapshot{
		NumTerms: ix.numTerms,
		NumDocs:  ix.numDocs,
		DF:       append([]int(nil), ix.df...),
		Postings: make([][]Posting, len(ix.postings)),
		Norms:    append([]float64(nil), ix.norms...),
	}
	for t, ps := range ix.postings {
		if len(ps) == 0 {
			continue
		}
		out := make([]Posting, len(ps))
		for i, p := range ps {
			out[i] = Posting{Doc: p.doc, Weight: p.weight}
		}
		slices.SortFunc(out, func(a, b Posting) int { return cmp.Compare(a.Doc, b.Doc) })
		s.Postings[t] = out
	}
	return s
}

// FromSnapshot reconstructs an Index from its serialized state,
// validating the shape invariants so a corrupt model file fails loudly
// instead of panicking later inside a query, and puts the lists in
// impact order. It rejects what that order cannot be trusted with:
// a list whose docs are not strictly ascending (a duplicated doc would
// be answered twice), a weight that is not a positive finite number,
// a non-finite norm, and a zero norm on a document with postings.
func FromSnapshot(s *IndexSnapshot) (*Index, error) {
	if s.NumTerms < 0 || s.NumDocs < 0 {
		return nil, fmt.Errorf("ir: snapshot with negative dimensions %d×%d", s.NumTerms, s.NumDocs)
	}
	if len(s.DF) != s.NumTerms || len(s.Postings) != s.NumTerms {
		return nil, fmt.Errorf("ir: snapshot term arrays (%d df, %d postings) do not match %d terms",
			len(s.DF), len(s.Postings), s.NumTerms)
	}
	if len(s.Norms) != s.NumDocs {
		return nil, fmt.Errorf("ir: snapshot has %d norms for %d docs", len(s.Norms), s.NumDocs)
	}
	ix := &Index{
		numTerms: s.NumTerms,
		numDocs:  s.NumDocs,
		df:       append([]int(nil), s.DF...),
		postings: make([][]posting, s.NumTerms),
		norms:    append([]float64(nil), s.Norms...),
	}
	for d, norm := range ix.norms {
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			return nil, fmt.Errorf("ir: snapshot doc %d has norm %v", d, norm)
		}
	}
	for t, ps := range s.Postings {
		if len(ps) == 0 {
			continue
		}
		out := make([]posting, len(ps))
		for i, p := range ps {
			switch {
			case p.Doc < 0 || p.Doc >= s.NumDocs:
				return nil, fmt.Errorf("ir: snapshot term %d posting doc %d out of range [0,%d)", t, p.Doc, s.NumDocs)
			case i > 0 && p.Doc <= ps[i-1].Doc:
				return nil, fmt.Errorf("ir: snapshot term %d lists doc %d after doc %d; docs must be strictly ascending", t, p.Doc, ps[i-1].Doc)
			case !(p.Weight > 0) || math.IsInf(p.Weight, 1):
				return nil, fmt.Errorf("ir: snapshot term %d doc %d has weight %v; weights must be positive and finite", t, p.Doc, p.Weight)
			case ix.norms[p.Doc] == 0:
				return nil, fmt.Errorf("ir: snapshot term %d doc %d has a posting but a zero norm", t, p.Doc)
			}
			out[i] = posting{doc: p.Doc, weight: p.Weight}
		}
		ix.postings[t] = out
	}
	ix.orderByImpact()
	return ix, nil
}
