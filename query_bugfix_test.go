package cubelsi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// scoredCorpus builds a corpus whose "audio" query matches well over ten
// resources at a spread of scores: m1..m12 are pure music resources and
// x1..x6 mix music and code tags in varying proportions, so the ranking
// has a long, strictly graded tail to put a threshold into.
func scoredCorpus() []Assignment {
	var out []Assignment
	add := func(u, t, r string) { out = append(out, Assignment{User: u, Tag: t, Resource: r}) }
	users := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	for i := range 12 {
		r := "m" + string(rune('a'+i))
		for _, u := range users {
			add(u, "audio", r)
			add(u, "mp3", r)
		}
	}
	for i := range 6 {
		r := "x" + string(rune('a'+i))
		for ui, u := range users {
			if ui <= i {
				add(u, "audio", r)
			} else {
				add(u, "code", r)
				add(u, "golang", r)
			}
		}
	}
	// Pure code resources keep the music concept out of some documents,
	// so its idf — and therefore every "audio" query weight — stays
	// positive.
	for i := range 4 {
		r := "c" + string(rune('a'+i))
		for _, u := range users {
			add(u, "code", r)
			add(u, "golang", r)
		}
	}
	return out
}

func scoredEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 0
	cfg.Seed = 1
	eng, err := Build(context.Background(), FromAssignments(scoredCorpus()), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestQueryLimitWithMinScore is the regression test for the ranking
// undershoot: with both WithLimit and WithMinScore set, the engine must
// return exactly Limit results whenever at least Limit resources score
// at or above the threshold — the threshold is applied inside the
// bounded ranking heap, before the truncation, never after it.
func TestQueryLimitWithMinScore(t *testing.T) {
	eng := scoredEngine(t)
	tags := []string{"audio"}

	full := eng.Query(NewQuery(tags)) // unlimited, unfiltered oracle
	if len(full) < 12 {
		t.Fatalf("corpus too small for the regression: only %d matches", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Score > full[i-1].Score {
			t.Fatalf("oracle not sorted: %+v", full)
		}
	}

	// Thresholds at several depths of the ranking, including one that
	// leaves fewer than Limit survivors.
	for _, passing := range []int{12, 11, 10, 7} {
		s := full[passing-1].Score
		var oracle []Result
		for _, r := range full {
			if r.Score >= s {
				oracle = append(oracle, r)
			}
		}
		const limit = 10
		got := eng.Query(NewQuery(tags, WithLimit(limit), WithMinScore(s)))

		want := len(oracle)
		if want > limit {
			want = limit
		}
		if len(got) != want {
			t.Fatalf("threshold %v (%d passing): got %d results, want %d",
				s, len(oracle), len(got), want)
		}
		if len(oracle) >= limit && len(got) != limit {
			t.Fatalf("threshold %v: %d resources pass but only %d returned", s, len(oracle), len(got))
		}
		for i := range got {
			if got[i] != oracle[i] {
				t.Fatalf("threshold %v result %d: got %+v, oracle %+v", s, i, got[i], oracle[i])
			}
			if got[i].Score < s {
				t.Fatalf("threshold %v: result %d scores %v below threshold", s, i, got[i].Score)
			}
		}
	}
}

// TestSearchBatchRecoversPanics pins the per-query panic recovery: a
// query that panics mid-batch (here via a corrupted concept assignment)
// must come back as a nil slot plus a joined error naming it, while
// every later query in the batch still completes — the process, and the
// rest of the batch, survive.
func TestSearchBatchRecoversPanics(t *testing.T) {
	eng := buildCorpus(t)

	// A copy whose tag→concept assignment points far outside the concept
	// space: mapping any known tag now produces a term id the index
	// rejects with a panic.
	corrupt := *eng
	corrupt.assign = make([]int, len(eng.assign))
	for i := range corrupt.assign {
		corrupt.assign[i] = eng.k + 100
	}

	queries := []Query{
		NewQuery([]string{"audio"}),     // panics: corrupt concept id
		NewQuery([]string{"nosuchtag"}), // empty counts never touch the index
		NewQuery([]string{"code"}),      // panics too
	}
	out, err := corrupt.SearchBatch(queries)
	if err == nil {
		t.Fatal("want a joined error for the panicking queries")
	}
	if len(out) != len(queries) {
		t.Fatalf("got %d slots for %d queries", len(out), len(queries))
	}
	if out[0] != nil || out[2] != nil {
		t.Fatalf("panicking queries must have nil slots: %v", out)
	}
	if out[1] == nil {
		t.Fatal("healthy query must still complete")
	}
	msg := err.Error()
	if !strings.Contains(msg, "query 0 panicked") || !strings.Contains(msg, "query 2 panicked") {
		t.Fatalf("error must name each failed query: %v", msg)
	}
	if strings.Contains(msg, "query 1") {
		t.Fatalf("healthy query reported as failed: %v", msg)
	}
	// The typed errors carry the recovery stack for server-side logs.
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("joined error must carry *BatchError values: %v", err)
	}
	if be.Query != 0 || len(be.Stack) == 0 || be.Value == nil {
		t.Fatalf("BatchError incomplete: query=%d stack=%d bytes value=%v", be.Query, len(be.Stack), be.Value)
	}
	if strings.Contains(msg, string(be.Stack)) {
		t.Fatal("stack must stay off the client-facing message")
	}

	// A healthy engine reports no error and identical per-query results.
	got, err := eng.SearchBatch(queries)
	if err != nil {
		t.Fatalf("healthy batch errored: %v", err)
	}
	for i, q := range queries {
		single := eng.Query(q)
		if len(got[i]) != len(single) {
			t.Fatalf("query %d: batch %d results, single %d", i, len(got[i]), len(single))
		}
	}
}

// TestRelatedTagsClampParity table-tests the n-clamping contract on both
// backends — the embedding top-k and the legacy dense-matrix fallback:
// n ≤ 0 and n > |T|−1 both mean "every other tag", and in-range n means
// exactly n, identically on the two paths.
func TestRelatedTagsClampParity(t *testing.T) {
	fresh := buildCorpus(t)
	v1Bytes, _, _ := buildV1Bytes(t, false)
	legacy, err := Load(bytes.NewReader(v1Bytes))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.EmbeddingDim() != 0 {
		t.Fatal("decomposition-free v1 model must fall back to the dense matrix")
	}

	total := len(fresh.Tags()) - 1
	cases := []struct {
		name string
		n    int
		want int
	}{
		{"negative", -3, total},
		{"zero", 0, total},
		{"one", 1, 1},
		{"all-but-one", total - 1, total - 1},
		{"exact", total, total},
		{"overshoot", total + 1, total},
		{"far-overshoot", total + 50, total},
	}
	backends := []struct {
		name string
		eng  *Engine
	}{
		{"embedding", fresh},
		{"legacy-dense", legacy},
	}
	for _, tc := range cases {
		for _, b := range backends {
			rel, err := b.eng.RelatedTags("audio", tc.n)
			if err != nil {
				t.Fatalf("%s n=%d (%s): %v", b.name, tc.n, tc.name, err)
			}
			if len(rel) != tc.want {
				t.Fatalf("%s n=%d (%s): got %d related tags, want %d",
					b.name, tc.n, tc.name, len(rel), tc.want)
			}
		}
		// The two backends must return the same tags at the same
		// distances (the dense matrix stores the same D̂ the embedding
		// computes, up to float tolerance).
		a, _ := fresh.RelatedTags("audio", tc.n)
		b, _ := legacy.RelatedTags("audio", tc.n)
		for i := range a {
			if a[i].Tag != b[i].Tag || math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
				t.Fatalf("n=%d (%s) rank %d: embedding %+v vs legacy %+v", tc.n, tc.name, i, a[i], b[i])
			}
		}
	}
}
