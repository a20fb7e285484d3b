package datagen

import (
	"strings"
	"testing"
)

func tinyCorpus(t *testing.T) *Corpus {
	t.Helper()
	return Generate(Tiny())
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Tiny())
	b := Generate(Tiny())
	if a.Raw.Stats() != b.Raw.Stats() || a.Clean.Stats() != b.Clean.Stats() {
		t.Fatalf("same params produced different corpora: %v/%v vs %v/%v",
			a.Raw.Stats(), a.Clean.Stats(), b.Raw.Stats(), b.Clean.Stats())
	}
}

func TestCleaningShrinks(t *testing.T) {
	c := tinyCorpus(t)
	raw, clean := c.Raw.Stats(), c.Clean.Stats()
	if clean.Tags >= raw.Tags {
		t.Fatalf("cleaning should shrink tags: raw %d, clean %d", raw.Tags, clean.Tags)
	}
	if clean.Assignments >= raw.Assignments {
		t.Fatalf("cleaning should shrink assignments: raw %d, clean %d", raw.Assignments, clean.Assignments)
	}
	if clean.Users == 0 || clean.Resources == 0 || clean.Tags == 0 {
		t.Fatalf("cleaning removed everything: %v", clean)
	}
}

func TestRawHasNoiseCleanDoesNot(t *testing.T) {
	c := tinyCorpus(t)
	rawHasSystem := false
	for _, name := range c.Raw.Tags.Names() {
		if strings.HasPrefix(name, "system:") {
			rawHasSystem = true
		}
	}
	if !rawHasSystem {
		t.Fatal("raw corpus should contain system tags")
	}
	for _, name := range c.Clean.Tags.Names() {
		if strings.HasPrefix(name, "system:") {
			t.Fatalf("clean corpus still has %q", name)
		}
		if name != strings.ToLower(name) {
			t.Fatalf("clean corpus has mixed-case tag %q", name)
		}
	}
}

func TestGroundTruthCoverage(t *testing.T) {
	c := tinyCorpus(t)
	// Every cleaned resource and user must have ground-truth concepts;
	// most cleaned tags should (gibberish doesn't survive cleaning).
	for id := range c.Clean.Resources.Len() {
		if len(c.ResourceConcepts[id]) == 0 {
			t.Fatalf("resource %s has no ground-truth concepts", c.Clean.Resources.Name(id))
		}
	}
	for id := range c.Clean.Users.Len() {
		if len(c.UserConcepts[id]) == 0 {
			t.Fatalf("user %s has no ground-truth concepts", c.Clean.Users.Name(id))
		}
	}
	known := 0
	for id := range c.Clean.Tags.Len() {
		if len(c.TagConcepts[id]) > 0 {
			known++
		}
	}
	if frac := float64(known) / float64(c.Clean.Tags.Len()); frac < 0.9 {
		t.Fatalf("only %.0f%% of cleaned tags have concepts", 100*frac)
	}
}

func TestPolysemyExists(t *testing.T) {
	c := tinyCorpus(t)
	poly := 0
	for _, cs := range c.TagConcepts {
		if len(cs) >= 2 {
			poly++
		}
	}
	if poly == 0 {
		t.Fatal("expected at least one polysemous tag")
	}
}

func TestPresetsShapeOrdering(t *testing.T) {
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("want 3 presets, got %d", len(ps))
	}
	names := []string{"delicious", "bibsonomy", "lastfm"}
	for i, p := range ps {
		if p.Name != names[i] {
			t.Fatalf("preset %d = %q, want %q", i, p.Name, names[i])
		}
	}
	// Relative shape: delicious has the most users and assignments;
	// bibsonomy the most resources (as in Table II).
	d, b, l := ps[0], ps[1], ps[2]
	if !(d.Users > b.Users && d.Users > l.Users) {
		t.Fatal("delicious should have the most users")
	}
	if !(d.Assignments > b.Assignments && d.Assignments > l.Assignments) {
		t.Fatal("delicious should have the most assignments")
	}
	if !(b.Resources > d.Resources && b.Resources > l.Resources) {
		t.Fatal("bibsonomy should have the most resources")
	}
}

func TestMakeQueries(t *testing.T) {
	c := tinyCorpus(t)
	qs := c.MakeQueries(20, 3, 99)
	if len(qs) != 20 {
		t.Fatalf("got %d queries, want 20", len(qs))
	}
	for i, q := range qs {
		if len(q.Tags) == 0 || len(q.Tags) > 3 {
			t.Fatalf("query %d has %d tags", i, len(q.Tags))
		}
		for _, tag := range q.Tags {
			id, ok := c.Clean.Tags.Lookup(tag)
			if !ok {
				t.Fatalf("query %d uses unknown tag %q", i, tag)
			}
			found := false
			for _, cc := range c.TagConcepts[id] {
				if cc == q.Concept {
					found = true
				}
			}
			if !found {
				t.Fatalf("query %d: tag %q does not belong to concept %d", i, tag, q.Concept)
			}
		}
	}
	// Determinism.
	qs2 := c.MakeQueries(20, 3, 99)
	for i := range qs {
		if qs[i].Concept != qs2[i].Concept || strings.Join(qs[i].Tags, ",") != strings.Join(qs2[i].Tags, ",") {
			t.Fatal("MakeQueries not deterministic")
		}
	}
}

func TestRelevanceGrading(t *testing.T) {
	c := tinyCorpus(t)
	qs := c.MakeQueries(10, 2, 5)
	sawRelevant, sawIrrelevant := false, false
	for _, q := range qs {
		for r := range c.Clean.Resources.Len() {
			switch c.Relevance(q, r) {
			case 2:
				sawRelevant = true
				// Grade-2 means the resource really has the concept.
				has := false
				for _, rc := range c.ResourceConcepts[r] {
					if rc == q.Concept {
						has = true
					}
				}
				if !has {
					t.Fatal("relevance 2 without concept match")
				}
			case 0:
				sawIrrelevant = true
			}
		}
	}
	if !sawRelevant || !sawIrrelevant {
		t.Fatalf("degenerate relevance: relevant=%v irrelevant=%v", sawRelevant, sawIrrelevant)
	}
}

func TestTensorShapeMatchesCleanStats(t *testing.T) {
	c := tinyCorpus(t)
	f := c.Clean.Tensor()
	i1, i2, i3 := f.Dims()
	s := c.Clean.Stats()
	if i1 != s.Users || i2 != s.Tags || i3 != s.Resources {
		t.Fatalf("tensor dims %d×%d×%d vs stats %v", i1, i2, i3, s)
	}
	if f.NNZ() != s.Assignments {
		t.Fatalf("NNZ %d != |Y| %d", f.NNZ(), s.Assignments)
	}
}

func TestValidatePanics(t *testing.T) {
	p := Tiny()
	p.Users = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Users=0")
		}
	}()
	Generate(p)
}

// TestTags10KPresetScale generates the tags10k corpus and
// checks the cleaned vocabulary lands on its ~10⁴-tag target. (Measured:
// 10820 tags in under a second, so a unit test can afford the run.)
func TestTags10KPresetScale(t *testing.T) {
	p := Tags10K()
	if p.Name != "tags10k" {
		t.Fatalf("preset name = %q", p.Name)
	}
	// The scale preset must stay out of the paper-analogue set.
	for _, q := range Presets() {
		if q.Name == p.Name {
			t.Fatalf("scale preset %q leaked into Presets()", q.Name)
		}
	}
	if testing.Short() {
		t.Skip("skipping corpus generation in -short mode")
	}
	c := Generate(p)
	st := c.Clean.Stats()
	if st.Tags < 9000 || st.Tags > 13000 {
		t.Fatalf("tags10k cleaned vocabulary = %d tags, want ~10⁴", st.Tags)
	}
	if st.Users == 0 || st.Resources == 0 || st.Assignments == 0 {
		t.Fatalf("degenerate corpus: %+v", st)
	}
}
