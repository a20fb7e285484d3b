package cubelsi

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/embed"
)

// TestWithANNExactRerankParity is the API-level golden parity test: an
// ANN engine probing every list with ExactRerank must answer RelatedTags
// bit-identically to the exact scan, for every tag and several depths.
func TestWithANNExactRerankParity(t *testing.T) {
	eng := buildCorpus(t)
	ann, err := eng.WithANN(eng.Concepts(), embed.ExactRerank)
	if err != nil {
		t.Fatal(err)
	}
	if !ann.ANNEnabled() || eng.ANNEnabled() {
		t.Fatal("WithANN must derive, not mutate")
	}
	for _, tag := range eng.Tags() {
		for _, n := range []int{1, 3, 0, 100} {
			want, err := eng.RelatedTags(tag, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ann.RelatedTags(tag, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tag %q n %d: ANN parity mode diverged from exact scan:\n%v\nvs\n%v", tag, n, got, want)
			}
		}
	}
}

// TestQuantizedCandidatesNeverChangeRanking: save with each quantized
// section, load, enable ANN in parity configuration — the quantized
// candidate scorer must not change any final ranking.
func TestQuantizedCandidatesNeverChangeRanking(t *testing.T) {
	eng := buildCorpus(t)
	for _, opt := range []SaveOption{WithInt8Embedding(), WithFloat16Embedding()} {
		path := filepath.Join(t.TempDir(), "q.clsi")
		if err := eng.SaveFile(path, opt); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Quantization() == "none" {
			t.Fatal("quantized section lost on load")
		}
		ann, err := loaded.WithANN(loaded.Concepts(), embed.ExactRerank)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range eng.Tags() {
			want, err := eng.RelatedTags(tag, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ann.RelatedTags(tag, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: tag %q: quantized candidates changed the ranking", loaded.Quantization(), tag)
			}
		}
	}
}

// TestSaveLoadMappedRankingParity: Save→Load and Save→LoadFile with
// WithMapped must produce identical rankings (search and related tags),
// per the v4 acceptance criteria.
func TestSaveLoadMappedRankingParity(t *testing.T) {
	eng := buildCorpus(t)
	path := filepath.Join(t.TempDir(), "m.clsi")
	if err := eng.SaveFile(path, WithInt8Embedding()); err != nil {
		t.Fatal(err)
	}
	heap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFile(path, WithMapped())
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if heap.Mapped() {
		t.Fatal("heap engine claims to be mapped")
	}
	for _, tag := range eng.Tags() {
		a, err := heap.RelatedTags(tag, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapped.RelatedTags(tag, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tag %q: mapped and heap rankings differ", tag)
		}
	}
	qa := heap.Query(NewQuery([]string{"audio"}))
	qb := mapped.Query(NewQuery([]string{"audio"}))
	if !reflect.DeepEqual(qa, qb) {
		t.Fatalf("search rankings differ: %v vs %v", qa, qb)
	}
	if heap.Version() != mapped.Version() || heap.SourceFingerprint() != mapped.SourceFingerprint() {
		t.Fatal("lifecycle metadata differs between load paths")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

func TestRelatedTagsProbeOverride(t *testing.T) {
	eng := buildCorpus(t)
	ann, err := eng.WithANN(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tag := eng.Tags()[0]
	// Full probing via the override must recover the exact top-1 set
	// membership even though the configured default probes one list.
	exact, err := eng.RelatedTags(tag, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ann.RelatedTagsProbe(tag, 1, ann.ANNLists())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1 || full[0].Tag != exact[0].Tag {
		t.Fatalf("full-probe override: %v, exact %v", full, exact)
	}
	// Zero keeps the configured default; unknown tags still error.
	if _, err := ann.RelatedTagsProbe(tag, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ann.RelatedTagsProbe("no-such-tag", 1, 0); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Non-ANN engines ignore the override.
	if _, err := eng.RelatedTagsProbe(tag, 1, 99); err != nil {
		t.Fatal(err)
	}
}

func TestWithANNValidation(t *testing.T) {
	eng := buildCorpus(t)
	if _, err := eng.WithANN(-1, 0); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative nprobe: err = %v", err)
	}
	if _, err := eng.WithANN(0, -5); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative rerank: err = %v", err)
	}
	ann, err := eng.WithANN(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := ann.ANNProbe(); p < 1 || p > ann.ANNLists() {
		t.Fatalf("default probe %d outside [1,%d]", p, ann.ANNLists())
	}
	if eng.ANNProbe() != 0 || eng.ANNLists() != 0 {
		t.Fatal("exact engine reports ANN knobs")
	}
	if eng.Quantization() != "none" {
		t.Fatalf("fresh build quantization = %q", eng.Quantization())
	}
	if err := eng.Close(); err != nil {
		t.Fatal("Close on heap engine must be a no-op, got", err)
	}
}
