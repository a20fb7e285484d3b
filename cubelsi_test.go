package cubelsi

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// corpus builds a small but structured corpus: two tag communities
// ("music" and "code") with synonym pairs, several users per community,
// enough volume to survive min-support cleaning.
func corpus() []Assignment {
	var out []Assignment
	add := func(u, t, r string) { out = append(out, Assignment{User: u, Tag: t, Resource: r}) }
	musicTags := []string{"audio", "mp3", "songs"}
	codeTags := []string{"code", "golang", "compiler"}
	musicRes := []string{"m1", "m2", "m3", "m4"}
	codeRes := []string{"c1", "c2", "c3", "c4"}
	for ui := range 6 {
		u := "mu" + string(rune('a'+ui))
		// Each music user uses two of the three synonyms.
		for ti := range 2 {
			tag := musicTags[(ui+ti)%3]
			for _, r := range musicRes {
				add(u, tag, r)
			}
		}
	}
	for ui := range 6 {
		u := "cu" + string(rune('a'+ui))
		for ti := range 2 {
			tag := codeTags[(ui+ti)%3]
			for _, r := range codeRes {
				add(u, tag, r)
			}
		}
	}
	return out
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1
	return cfg
}

func TestEngineBuildAndStats(t *testing.T) {
	eng := buildCorpus(t)
	st := eng.Stats()
	if st.Tags != 6 || st.Resources != 8 || st.Users != 12 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Concepts != 2 {
		t.Fatalf("concepts = %d, want 2", st.Concepts)
	}
	if st.Fit <= 0 || st.Fit > 1+1e-9 {
		t.Fatalf("fit = %v out of range", st.Fit)
	}
}

func TestSearchCrossSynonym(t *testing.T) {
	// The headline behavior: searching a synonym retrieves resources even
	// when tagged with a *different* synonym, via the shared concept.
	eng := buildCorpus(t)
	res := eng.Query(NewQuery([]string{"mp3"}, WithLimit(0)))
	if len(res) == 0 {
		t.Fatal("no results")
	}
	music, code := 0, 0
	for _, r := range res {
		if strings.HasPrefix(r.Resource, "m") {
			music++
		} else {
			code++
		}
	}
	if music != 4 {
		t.Fatalf("mp3 query should reach all 4 music resources, got %d (results %v)", music, res)
	}
	if code != 0 {
		t.Fatalf("mp3 query leaked into %d code resources: %v", code, res)
	}
}

func TestConceptsSeparateCommunities(t *testing.T) {
	eng := buildCorpus(t)
	audio, err := eng.ConceptOf("audio")
	if err != nil {
		t.Fatal(err)
	}
	mp3, _ := eng.ConceptOf("mp3")
	songs, _ := eng.ConceptOf("songs")
	golang, _ := eng.ConceptOf("golang")
	if audio != mp3 || audio != songs {
		t.Fatalf("music synonyms split: %d %d %d", audio, mp3, songs)
	}
	if golang == audio {
		t.Fatal("code tags merged with music tags")
	}
	clusters := eng.Clusters()
	total := 0
	for _, c := range clusters {
		total += len(c)
	}
	if total != 6 {
		t.Fatalf("clusters cover %d tags, want 6", total)
	}
}

func TestRelatedTags(t *testing.T) {
	eng := buildCorpus(t)
	rel, err := eng.RelatedTags("audio", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 2 {
		t.Fatalf("want 2 related tags, got %v", rel)
	}
	for _, r := range rel {
		if r.Tag == "code" || r.Tag == "golang" || r.Tag == "compiler" {
			t.Fatalf("audio's nearest tags should be musical: %v", rel)
		}
	}
	// Distances ascending.
	if rel[1].Distance < rel[0].Distance {
		t.Fatalf("related tags not sorted: %v", rel)
	}
}

func TestDistanceSymmetricAndCaseFolded(t *testing.T) {
	eng := buildCorpus(t)
	ab, err := eng.Distance("audio", "mp3")
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := eng.Distance("MP3", "Audio") // case folding
	if ab != ba {
		t.Fatalf("distance not symmetric/case-folded: %v vs %v", ab, ba)
	}
	self, _ := eng.Distance("audio", "audio")
	if self != 0 {
		t.Fatalf("self distance = %v", self)
	}
	if _, err := eng.Distance("audio", "nosuchtag"); err == nil {
		t.Fatal("expected error for unknown tag")
	}
}

func TestOpenTSV(t *testing.T) {
	// The same assignments read from TSV open the same engine as the
	// in-memory source: same statistics, same ranked answers.
	var sb strings.Builder
	for _, a := range corpus() {
		sb.WriteString(a.User + "\t" + a.Tag + "\t" + a.Resource + "\n")
	}
	eng, err := Build(context.Background(), FromTSV(strings.NewReader(sb.String())), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	want := buildCorpus(t)
	if !reflect.DeepEqual(eng.Stats(), want.Stats()) {
		t.Fatalf("stats = %+v, want %+v", eng.Stats(), want.Stats())
	}
	q := NewQuery([]string{"mp3"}, WithLimit(0))
	if got, exp := eng.Query(q), want.Query(q); len(got) == 0 || !reflect.DeepEqual(got, exp) {
		t.Fatalf("TSV results = %v, want %v", got, exp)
	}
}

func TestSearchUnknownTags(t *testing.T) {
	eng := buildCorpus(t)
	if res := eng.Query(NewQuery([]string{"nosuchtag"}, WithLimit(5))); len(res) != 0 {
		t.Fatalf("unknown tag should yield nothing: %v", res)
	}
	// Mixed known/unknown still works.
	if res := eng.Query(NewQuery([]string{"nosuchtag", "audio"}, WithLimit(5))); len(res) == 0 {
		t.Fatal("mixed query should still match")
	}
}

func TestTopNLimit(t *testing.T) {
	eng := buildCorpus(t)
	if res := eng.Query(NewQuery([]string{"audio"}, WithLimit(2))); len(res) != 2 {
		t.Fatalf("topN=2 returned %d", len(res))
	}
}

func TestErrorPaths(t *testing.T) {
	ctx := context.Background()
	if _, err := Build(ctx, FromAssignments([]Assignment{{User: "", Tag: "t", Resource: "r"}}), WithConfig(testConfig())); err == nil {
		t.Fatal("empty field should error")
	}
	cfg := testConfig()
	cfg.ReductionRatios = [3]float64{0.5, 50, 50}
	if _, err := Build(ctx, FromAssignments(corpus()), WithConfig(cfg)); err == nil {
		t.Fatal("ratio < 1 should error")
	}
	cfg = testConfig()
	cfg.MinSupport = 10000
	if _, err := Build(ctx, FromAssignments(corpus()), WithConfig(cfg)); err == nil {
		t.Fatal("over-aggressive cleaning should error")
	}
	if _, err := Build(ctx, FromTSV(strings.NewReader("bad line\n")), WithConfig(testConfig())); err == nil {
		t.Fatal("malformed TSV should error")
	}
}

func TestHasTagAndTags(t *testing.T) {
	eng := buildCorpus(t)
	if !eng.HasTag("audio") || !eng.HasTag("AUDIO") {
		t.Fatal("HasTag should be case-insensitive under Lowercase")
	}
	if eng.HasTag("nosuchtag") {
		t.Fatal("HasTag false positive")
	}
	if len(eng.Tags()) != 6 {
		t.Fatalf("Tags() = %v", eng.Tags())
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a, b := buildCorpus(t), buildCorpus(t)
	ra := a.Query(NewQuery([]string{"audio"}, WithLimit(5)))
	rb := b.Query(NewQuery([]string{"audio"}, WithLimit(5)))
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic result count")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("nondeterministic results")
		}
	}
}
