package retrieve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// testIndex builds a small 3-concept index: docs 0–2 dominated by
// concept 0, docs 3–4 by concept 1, doc 5 by concept 2, with enough
// off-concept mass that probing misses some exact matches.
func testIndex() *ir.Index {
	docs := []map[int]int{
		{0: 5, 1: 1},
		{0: 4},
		{0: 3, 2: 1},
		{1: 6, 0: 1},
		{1: 2},
		{2: 4, 1: 1},
	}
	return ir.BuildIndex(docs, 3)
}

func weights(ix *ir.Index, counts map[int]int) map[int]float64 {
	return ix.QueryWeights(counts)
}

// TestExactFullDepthMatchesReference pins the default plan at the
// package level: the exact source at corpus depth — one kernel call —
// reproduces the brute-force doc-by-doc ranking bit for bit.
func TestExactFullDepthMatchesReference(t *testing.T) {
	ix := testIndex()
	p := Default()
	for _, counts := range []map[int]int{{0: 2}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}} {
		req := Request{Weights: weights(ix, counts), MinScore: math.Inf(-1)}
		mustEqualScored(t, fmt.Sprintf("counts %v", counts), p.Search(ix, req), refSearch(ix, 0, false, req))
	}
}

// TestDepthTruncatesCandidates checks C actually bounds stage one: at
// depth 1 only the single best candidate survives to the rerank.
func TestDepthTruncatesCandidates(t *testing.T) {
	ix := testIndex()
	p, err := New(Exact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Search(ix, Request{Weights: weights(ix, map[int]int{0: 1})})
	if len(got) != 1 {
		t.Fatalf("depth-1 pipeline returned %d results", len(got))
	}
	full := Default().Search(ix, Request{Weights: weights(ix, map[int]int{0: 1})})
	if got[0] != full[0] {
		t.Fatalf("depth-1 best %+v, full-depth best %+v", got[0], full[0])
	}

	// Per-request depth override widens it back out.
	wide := p.Search(ix, Request{Weights: weights(ix, map[int]int{0: 1}), Depth: ix.NumDocs()})
	if len(wide) != len(full) {
		t.Fatalf("request-depth override returned %d results, want %d", len(wide), len(full))
	}
}

// TestConceptSourceScoresExactly checks the sublinear source's
// contract: possibly fewer documents, but never a score that disagrees
// with the exact scan.
func TestConceptSourceScoresExactly(t *testing.T) {
	ix := testIndex()
	p, err := New(Concept(), 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int]float64{}
	counts := map[int]int{0: 1}
	for _, s := range ix.QueryMin(counts, 0, math.Inf(-1)) {
		exact[s.Doc] = s.Score
	}
	got := p.Search(ix, Request{Weights: weights(ix, counts)})
	if len(got) == 0 {
		t.Fatal("concept source found nothing for a populated concept")
	}
	for _, s := range got {
		want, ok := exact[s.Doc]
		if !ok {
			t.Fatalf("concept source invented doc %d", s.Doc)
		}
		if s.Score != want {
			t.Fatalf("doc %d scored %v, exactly %v", s.Doc, s.Score, want)
		}
	}
}

// TestUserBiasBlendsAndFilters pins the personalized score arithmetic:
// (1−β)·cosine + β·affinity, with MinScore applied after the blend.
func TestUserBiasBlendsAndFilters(t *testing.T) {
	ix := testIndex()
	counts := map[int]int{0: 1, 1: 1}
	qw := weights(ix, counts)
	base := Default().Search(ix, Request{Weights: qw})

	user := []float64{1, 0, 0} // all affinity on concept 0
	personalized := Default().Search(ix, Request{Weights: qw, User: user})
	if len(personalized) == 0 {
		t.Fatal("personalized search returned nothing")
	}
	f := ix.Forward()
	baseScore := map[int]float64{}
	for _, s := range base {
		baseScore[s.Doc] = s.Score
	}
	for _, s := range personalized {
		want := (1-UserBlend)*baseScore[s.Doc] + UserBlend*f.Affinity(user, s.Doc)
		if s.Score != want {
			t.Fatalf("doc %d blended score %v, want %v", s.Doc, s.Score, want)
		}
	}

	// MinScore cuts on the blended value.
	cut := personalized[0].Score
	thresh := Default().Search(ix, Request{Weights: qw, User: user, MinScore: cut})
	for _, s := range thresh {
		if s.Score < cut {
			t.Fatalf("MinScore leaked %+v below %v", s, cut)
		}
	}

	// A nil user vector applies no blend at all, not even a zero one.
	again := Default().Search(ix, Request{Weights: qw, User: nil})
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("nil-user result %d: %+v vs %+v", i, again[i], base[i])
		}
	}
}

// TestByName covers the configuration surface.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{"": "exact", "exact": "exact", "concept": "concept"} {
		src, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if src.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q, want %q", name, src.Name(), want)
		}
	}
	if _, err := ByName("annoy"); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := New(nil, -1); err == nil {
		t.Fatal("negative depth accepted")
	}
	p, err := New(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.SourceName() != "exact" || p.Depth() != 7 {
		t.Fatalf("New(nil, 7) = (%q, %d)", p.SourceName(), p.Depth())
	}
}

// TestEmptyQuery returns nothing rather than scanning.
func TestEmptyQuery(t *testing.T) {
	if got := Default().Search(testIndex(), Request{}); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
}

// benchSearch times p.Search over a 20 000-document randomIndex, a
// three-concept query and Limit 10, shared (user false) or with a user
// row; the first call builds the forward view outside the timed region.
func benchSearch(b *testing.B, p *Pipeline, user bool) {
	rng := rand.New(rand.NewSource(1))
	ix := randomIndex(rng, 20_000, 24)
	req := Request{Weights: ix.QueryWeights(map[int]int{1: 1, 7: 1, 13: 2}), Limit: 10}
	if user {
		req.User = make([]float64, ix.NumTerms())
		for i := range req.User {
			req.User[i] = rng.NormFloat64()
		}
	}
	p.Search(ix, req)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		p.Search(ix, req)
	}
}

// BenchmarkSearchPartialDepthUser measures the plan that still has two
// stages: the exact source cut at C = 200 candidates by cosine, then
// the user blend, threshold and order over those 200 — no rescoring.
func BenchmarkSearchPartialDepthUser(b *testing.B) {
	p, err := New(Exact(), 200)
	if err != nil {
		b.Fatal(err)
	}
	benchSearch(b, p, true)
}

// BenchmarkSearchConcept measures the concept source at C = 200, Limit
// 10: shared, one heap-bounded pass over the probed dominant-term lists
// at min(C, Limit); personalised, that pass at C then the blend-and-sort
// stage over its 200 candidates.
func BenchmarkSearchConcept(b *testing.B) {
	p, err := New(Concept(), 200)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) { benchSearch(b, p, false) })
	b.Run("personalised", func(b *testing.B) { benchSearch(b, p, true) })
}
