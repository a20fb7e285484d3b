package cubelsi

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func buildCorpus(t *testing.T, opts ...BuildOption) *Engine {
	t.Helper()
	if len(opts) == 0 {
		opts = []BuildOption{WithConfig(testConfig())}
	}
	eng, err := Build(context.Background(), FromAssignments(corpus()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestBuildWithProgress(t *testing.T) {
	var events []Progress
	eng, err := Build(context.Background(), FromAssignments(corpus()),
		WithConfig(testConfig()),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Concepts != 2 {
		t.Fatalf("stats = %+v", eng.Stats())
	}
	wantStages := []Stage{StageTensor, StageDecompose, StageEmbed, StageCluster, StageIndex}
	if len(events) != 2*len(wantStages) {
		t.Fatalf("got %d progress events, want %d: %v", len(events), 2*len(wantStages), events)
	}
	for i, s := range wantStages {
		start, done := events[2*i], events[2*i+1]
		if start.Stage != s || start.Done {
			t.Fatalf("event %d = %+v, want start of %v", 2*i, start, s)
		}
		if done.Stage != s || !done.Done {
			t.Fatalf("event %d = %+v, want finish of %v", 2*i+1, done, s)
		}
	}
	if eng.Timings().Total() <= 0 {
		t.Fatalf("timings = %+v", eng.Timings())
	}
}

func TestBuildCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, FromAssignments(corpus()), WithConfig(testConfig())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel mid-ALS: the decompose stage's own context checks abort it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err := Build(ctx2, FromAssignments(corpus()),
		WithConfig(testConfig()),
		WithProgress(func(p Progress) {
			if p.Stage == StageDecompose && !p.Done {
				cancel2()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-ALS err = %v, want context.Canceled", err)
	}

	// The build pipeline is single-goroutine; cancellation must not
	// strand anything. Allow the runtime a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestSaveLoadRoundtripIdenticalRankings(t *testing.T) {
	eng := buildCorpus(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Stats() != eng.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", restored.Stats(), eng.Stats())
	}

	queries := [][]string{{"mp3"}, {"audio", "songs"}, {"golang"}, {"code", "compiler"}, {"nosuchtag"}}
	for _, q := range queries {
		a := eng.Query(NewQuery(q))
		b := restored.Query(NewQuery(q))
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				// Result holds a float64 score; struct equality means the
				// ranking round-tripped bit-for-bit.
				t.Fatalf("query %v result %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}

	// Distances, clusters, and vocabulary survive too.
	d1, err := eng.Distance("audio", "mp3")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := restored.Distance("audio", "mp3")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("distance changed: %v vs %v", d1, d2)
	}
	if len(restored.Tags()) != len(eng.Tags()) {
		t.Fatal("tag vocabulary changed")
	}
	ca, cb := eng.Clusters(), restored.Clusters()
	if len(ca) != len(cb) {
		t.Fatalf("cluster count changed: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if strings.Join(ca[i], ",") != strings.Join(cb[i], ",") {
			t.Fatalf("cluster %d changed: %v vs %v", i, ca[i], cb[i])
		}
	}

	// Case folding must survive the roundtrip (Lowercase flag).
	if !restored.HasTag("AUDIO") {
		t.Fatal("restored engine lost case folding")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a model")); err == nil {
		t.Fatal("want error for garbage input")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	eng := buildCorpus(t)
	queries := []Query{
		NewQuery([]string{"mp3"}),
		NewQuery([]string{"audio"}, WithLimit(2)),
		NewQuery([]string{"code"}, WithMinScore(0.5)),
		NewQuery([]string{"nosuchtag"}),
		NewQuery([]string{"golang", "compiler"}, WithLimit(3)),
		NewQuery(nil, WithConcepts(0)),
	}
	batch, err := eng.SearchBatch(queries)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch has %d entries for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		single := eng.Query(q)
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: batch %d results, single %d", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("query %d result %d: batch %+v, single %+v", i, j, batch[i][j], single[j])
			}
		}
	}
	if out, err := eng.SearchBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch returned %v, %v", out, err)
	}
}

func TestQueryOptions(t *testing.T) {
	eng := buildCorpus(t)

	all := eng.Query(NewQuery([]string{"audio"}))
	if len(all) == 0 {
		t.Fatal("no results")
	}
	if got := eng.Query(NewQuery([]string{"audio"}, WithLimit(2))); len(got) != 2 {
		t.Fatalf("WithLimit(2) returned %d results", len(got))
	}

	// MinScore above the best score filters everything.
	best := all[0].Score
	if got := eng.Query(NewQuery([]string{"audio"}, WithMinScore(best+1))); len(got) != 0 {
		t.Fatalf("MinScore above max still returned %v", got)
	}
	// MinScore at the best score keeps at least the top hit.
	got := eng.Query(NewQuery([]string{"audio"}, WithMinScore(best)))
	if len(got) == 0 || got[0].Score < best {
		t.Fatalf("MinScore at max lost the top hit: %v", got)
	}

	// Querying by concept id alone retrieves that concept's resources.
	c, err := eng.ConceptOf("audio")
	if err != nil {
		t.Fatal(err)
	}
	byConcept := eng.Query(NewQuery(nil, WithConcepts(c)))
	byTag := eng.Query(NewQuery([]string{"audio"}))
	if len(byConcept) != len(byTag) {
		t.Fatalf("concept query: %d results, tag query %d", len(byConcept), len(byTag))
	}
	for i := range byTag {
		if byConcept[i] != byTag[i] {
			t.Fatalf("concept/tag query diverge at %d: %+v vs %+v", i, byConcept[i], byTag[i])
		}
	}

	// Out-of-range concept ids are ignored, not fatal.
	if got := eng.Query(NewQuery(nil, WithConcepts(-1, 9999))); len(got) != 0 {
		t.Fatalf("out-of-range concepts returned %v", got)
	}
}

func TestNonASCIILowercasing(t *testing.T) {
	// strings.ToLower folds non-ASCII letters; the old ASCII-only helper
	// treated "MÜNCHEN" and "münchen" as distinct tags.
	var assignments []Assignment
	for ui := range 6 {
		u := "u" + string(rune('a'+ui))
		upper, lower := "MÜNCHEN", "münchen"
		tag := upper
		if ui%2 == 0 {
			tag = lower
		}
		for _, r := range []string{"r1", "r2", "r3"} {
			assignments = append(assignments, Assignment{User: u, Tag: tag, Resource: r})
		}
		for _, r := range []string{"r1", "r2", "r3"} {
			assignments = append(assignments, Assignment{User: u, Tag: "city", Resource: r})
		}
	}
	cfg := DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 1, 2}
	cfg.Concepts = 1
	cfg.MinSupport = 2
	cfg.Seed = 1
	eng, err := Build(context.Background(), FromAssignments(assignments), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Both casings must resolve to one merged tag.
	if !eng.HasTag("MÜNCHEN") || !eng.HasTag("münchen") {
		t.Fatalf("non-ASCII case folding broken; tags = %v", eng.Tags())
	}
	d, err := eng.Distance("MÜNCHEN", "münchen")
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("same tag under folding should have distance 0, got %v", d)
	}
}

func TestFromTSVSource(t *testing.T) {
	var sb strings.Builder
	for _, a := range corpus() {
		sb.WriteString(a.User + "\t" + a.Tag + "\t" + a.Resource + "\n")
	}
	eng, err := Build(context.Background(), FromTSV(strings.NewReader(sb.String())), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Tags != 6 {
		t.Fatalf("stats = %+v", eng.Stats())
	}
}

func TestBuildDefaultsToDefaultConfig(t *testing.T) {
	// No options: DefaultConfig applies (ratio 50, min-support 5). The
	// tiny corpus survives min-support 5 with 12 users × 8 assignments.
	eng, err := Build(context.Background(), FromAssignments(corpus()))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Assignments == 0 {
		t.Fatal("no assignments")
	}
}
