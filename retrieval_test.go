package cubelsi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
)

// parityQueries is the workload the parity tests replay against every
// pair of engine configurations: plain keyword queries, multi-tag
// queries, limits, thresholds, and a miss.
func parityQueries() []Query {
	return []Query{
		NewQuery([]string{"mp3"}),
		NewQuery([]string{"audio", "songs"}),
		NewQuery([]string{"golang"}, WithLimit(3)),
		NewQuery([]string{"code", "compiler"}, WithMinScore(0.1)),
		NewQuery([]string{"audio", "golang"}, WithLimit(2), WithMinScore(0.05)),
		NewQuery([]string{"nosuchtag"}),
		NewQuery(nil, WithConcepts(0)),
		NewQuery(nil, WithConcepts(1), WithLimit(4)),
	}
}

// mustEqualResults asserts two rankings are bit-identical: Result holds
// a float64 score, so struct equality is float-bit equality.
func mustEqualResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results\n a=%v\n b=%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestRetrievalGoldenParity pins that configuration alone never moves a
// ranking: the exact candidate source at a depth covering the corpus —
// configured with WithRetrieval as 0 or as the corpus size, or requested
// ad hoc per query — ranks bit-identically to the default engine. What
// the default engine itself must return is pinned by
// TestGoldenAnswerHash and the brute-force reference property tests in
// internal/ir and internal/retrieve.
func TestRetrievalGoldenParity(t *testing.T) {
	eng := buildCorpus(t)
	corpusSize := eng.Stats().Resources

	twoStage, err := eng.WithRetrieval("exact", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !twoStage.RetrievalEnabled() || twoStage.RetrievalSource() != "exact" || twoStage.RetrievalDepth() != 0 {
		t.Fatalf("retrieval config = (%v, %q, %d)", twoStage.RetrievalEnabled(), twoStage.RetrievalSource(), twoStage.RetrievalDepth())
	}
	if eng.RetrievalEnabled() {
		t.Fatal("WithRetrieval mutated the receiver")
	}
	deep, err := eng.WithRetrieval("exact", corpusSize)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range parityQueries() {
		want := eng.Query(q)
		mustEqualResults(t, "exact/full-depth pipeline", want, twoStage.Query(q))
		mustEqualResults(t, "exact/corpus-depth pipeline", want, deep.Query(q))

		// Ad-hoc per-request depth on an engine without a pipeline.
		adhoc := q
		adhoc.Rerank = corpusSize
		mustEqualResults(t, "ad-hoc rerank", want, eng.Query(adhoc))
	}
}

// TestRetrievalConceptSourceSubsetOfExact checks the sublinear candidate
// source's contract: it may miss documents (bounded recall), but every
// document it does return carries the exact score the full scan gives
// it, in the same order relative to the exact ranking.
func TestRetrievalConceptSourceSubsetOfExact(t *testing.T) {
	eng := buildCorpus(t)
	conceptEng, err := eng.WithRetrieval("concept", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries() {
		// Reference scores from the unbounded exact scan: the concept
		// source's survivors must appear there with identical scores even
		// when q itself is limited or thresholded.
		exact := eng.Query(Query{Tags: q.Tags, Concepts: q.Concepts})
		scores := make(map[string]float64, len(exact))
		for _, r := range exact {
			scores[r.Resource] = r.Score
		}
		got := conceptEng.Query(q)
		for i, r := range got {
			want, ok := scores[r.Resource]
			if !ok {
				t.Fatalf("query %v: concept source invented resource %q", q.Tags, r.Resource)
			}
			if r.Score != want {
				t.Fatalf("query %v: %q scored %v by concept source, %v exactly", q.Tags, r.Resource, r.Score, want)
			}
			if i > 0 && (got[i-1].Score < r.Score) {
				t.Fatalf("query %v: concept ranking out of order at %d", q.Tags, i)
			}
		}
		// Determinism across calls.
		mustEqualResults(t, "concept determinism", got, conceptEng.Query(q))
	}
}

// TestWithRetrievalInvalidOptions pins the option-validation envelope.
func TestWithRetrievalInvalidOptions(t *testing.T) {
	eng := buildCorpus(t)
	if _, err := eng.WithRetrieval("annoy", 0); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("unknown source err = %v, want ErrInvalidOptions", err)
	}
	if _, err := eng.WithRetrieval("exact", -1); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative depth err = %v, want ErrInvalidOptions", err)
	}
	if _, err := eng.WithRetrieval("", 0); err != nil {
		t.Fatalf("empty source should default to exact, got %v", err)
	}
}

// TestQueryConceptIDHandling is the public-API table test for explicit
// concept ids: out-of-range and negative ids are ignored, and repeated
// ids count once instead of silently double-weighting the concept.
func TestQueryConceptIDHandling(t *testing.T) {
	eng := buildCorpus(t)
	k := eng.Stats().Concepts
	cases := []struct {
		name     string
		concepts []int
		want     []int // equivalent concept list
	}{
		{name: "negative ignored", concepts: []int{-1}, want: nil},
		{name: "out of range ignored", concepts: []int{k, k + 7}, want: nil},
		{name: "duplicate counts once", concepts: []int{0, 0, 0}, want: []int{0}},
		{name: "mixed junk and dup", concepts: []int{-3, 1, k + 1, 1}, want: []int{1}},
		{name: "all concepts deduped", concepts: []int{0, 1, 1, 0}, want: []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// With tags present: the invalid/duplicate ids must not shift
			// the ranking relative to the cleaned concept list.
			got := eng.Query(NewQuery([]string{"audio"}, WithConcepts(tc.concepts...)))
			want := eng.Query(NewQuery([]string{"audio"}, WithConcepts(tc.want...)))
			mustEqualResults(t, "with tags", want, got)

			// Concept-only queries too.
			got = eng.Query(Query{Concepts: tc.concepts})
			want = eng.Query(Query{Concepts: tc.want})
			mustEqualResults(t, "concept-only", want, got)
		})
	}
}

// TestUserParityWithoutFactors pins the second golden-parity guarantee:
// WithUser on a model that carries no user factors — or naming a user
// the model has never seen — serves the shared ranking bit-identically
// to an unpersonalized query.
func TestUserParityWithoutFactors(t *testing.T) {
	eng := buildCorpus(t)
	if !eng.UserFactors() {
		t.Fatal("fresh build should carry user factors")
	}

	// Round-trip through a model saved WITHOUT WithUserFactors: the
	// loaded engine is factorless.
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bare, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bare.UserFactors() {
		t.Fatal("model saved without WithUserFactors must load factorless")
	}
	for _, q := range parityQueries() {
		want := bare.Query(q)
		personalized := q
		personalized.User = "mua"
		mustEqualResults(t, "factorless WithUser", want, bare.Query(personalized))
	}

	// Unknown user on a factor-bearing engine: same guarantee.
	for _, q := range parityQueries() {
		want := eng.Query(q)
		personalized := q
		personalized.User = "nobody-ever"
		mustEqualResults(t, "unknown-user WithUser", want, eng.Query(personalized))
	}
}

// TestPersonalizedQueryDeterministic checks the personalized path is
// well-formed: a known user on a factor-bearing engine yields a
// deterministic, correctly ordered ranking over the same resources the
// exact scan reaches.
func TestPersonalizedQueryDeterministic(t *testing.T) {
	eng := buildCorpus(t)
	for _, user := range []string{"mua", "cub"} {
		q := NewQuery([]string{"audio", "code"}, WithUser(user))
		got := eng.Query(q)
		if len(got) == 0 {
			t.Fatalf("user %s: no results", user)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Score < got[i].Score {
				t.Fatalf("user %s: ranking out of order at %d: %v", user, i, got)
			}
		}
		mustEqualResults(t, "personalized determinism", got, eng.Query(q))

		// MinScore applies to the final blended score: no result below it.
		thresh := NewQuery([]string{"audio", "code"}, WithUser(user), WithMinScore(got[0].Score))
		for _, r := range eng.Query(thresh) {
			if r.Score < got[0].Score {
				t.Fatalf("user %s: MinScore leaked %v", user, r)
			}
		}
	}
}

// TestSaveLoadUserFactorsRoundtrip covers the codec v5 opt-in section
// end to end at the public API: Save(WithUserFactors) → Load and →
// LoadFile(WithMapped) both restore a personalizing engine whose
// WithUser rankings are bit-identical to the builder's, while Save
// without the option stays factorless, and saving a factorless engine
// with the option is a descriptive error.
func TestSaveLoadUserFactorsRoundtrip(t *testing.T) {
	eng := buildCorpus(t)
	queries := []Query{
		NewQuery([]string{"audio", "songs"}, WithUser("mua")),
		NewQuery([]string{"code"}, WithUser("cub"), WithLimit(3)),
		NewQuery([]string{"mp3", "golang"}, WithUser("muc")),
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.v5.clsi")
	if err := eng.SaveFile(path, WithUserFactors()); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFile(path, WithMapped())
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !loaded.UserFactors() || !mapped.UserFactors() {
		t.Fatalf("user factors lost: heap=%v mapped=%v", loaded.UserFactors(), mapped.UserFactors())
	}
	for _, q := range queries {
		want := eng.Query(q)
		mustEqualResults(t, "heap-decoded personalization", want, loaded.Query(q))
		mustEqualResults(t, "mapped personalization", want, mapped.Query(q))
	}
	// Unpersonalized queries round-trip too.
	for _, q := range parityQueries() {
		want := eng.Query(q)
		mustEqualResults(t, "heap-decoded shared ranking", want, loaded.Query(q))
		mustEqualResults(t, "mapped shared ranking", want, mapped.Query(q))
	}

	// A factorless engine cannot save the section; the error says why.
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bare, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = bare.Save(&bytes.Buffer{}, WithUserFactors())
	if err == nil {
		t.Fatal("want error saving user factors from a factorless engine")
	}
	if !strings.Contains(err.Error(), "no user factors") {
		t.Fatalf("error %q does not explain the missing section", err)
	}
}

// TestOneConceptQueriesMatchDocByDocScore pins the one-concept queries,
// which the index answers by reading the concept's impact-ordered list
// and stopping early: one tag, a repeated tag, two tags of the concept,
// a tag plus Query.Concepts naming its own concept, and the concept
// named twice all send the concept's own weight and must each rank
// exactly as a doc-by-doc reference does — every resource scored
// through the forward view, sorted (score desc, doc asc), thresholded
// and cut — at every limit and at thresholds on tied scores.
func TestOneConceptQueriesMatchDocByDocScore(t *testing.T) {
	eng := tinyEngine(t)
	n := eng.Stats().Resources
	byConcept := map[int][]string{}
	for _, tag := range eng.Tags() {
		if k, err := eng.ConceptOf(tag); err == nil {
			byConcept[k] = append(byConcept[k], tag)
		}
	}
	f := eng.index.Forward()
	reference := func(k, limit int, min float64) []Result {
		qw := eng.index.QueryWeights(map[int]int{k: 1})
		qnorm := eng.index.QueryNorm(qw)
		var all []ir.Scored
		for d := range n {
			if s, ok := f.Score(qw, qnorm, d); ok && s >= min {
				all = append(all, ir.Scored{Doc: d, Score: s})
			}
		}
		ir.SortScoredDesc(all)
		if limit > 0 && len(all) > limit {
			all = all[:limit]
		}
		return eng.results(all)
	}
	pairs := 0
	for k := range eng.Concepts() {
		tags := byConcept[k]
		if len(tags) == 0 {
			continue
		}
		a := tags[0]
		variants := map[string]Query{
			"one tag":         {Tags: []string{a}},
			"repeated tag":    {Tags: []string{a, a, a}},
			"tag and concept": {Tags: []string{a}, Concepts: []int{k}},
			"concept twice":   {Concepts: []int{k, k}},
		}
		if len(tags) > 1 {
			variants["two tags"] = Query{Tags: []string{a, tags[1], a}}
			pairs++
		}
		full := reference(k, 0, math.Inf(-1))
		mins := []float64{-1, 0, 1}
		for i := 0; i+1 < len(full); i++ {
			if full[i].Score == full[i+1].Score {
				mins = append(mins, full[i].Score)
			}
		}
		for name, q := range variants {
			for _, limit := range []int{0, 1, 3, n + 5} {
				for _, min := range mins {
					q.Limit, q.MinScore = limit, min
					label := fmt.Sprintf("concept %d %s limit %d min %v", k, name, limit, min)
					mustEqualResults(t, label, reference(k, limit, min), eng.Query(q))
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no concept holds two tags; the two-tag variant went untested")
	}
}
