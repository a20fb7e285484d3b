package cubelsi

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tagging"
)

// TestGoldenParityPublicAPI is the public-API golden parity check: the
// default embedding-first build must rank identically (within float
// tolerance) to the seed spectral pipeline, preserved behind
// core.Options.ExactSpectral, on the structured test corpus.
func TestGoldenParityPublicAPI(t *testing.T) {
	embedded := buildCorpus(t)
	exact := engineFromPipeline(testConfig(), buildExactPipeline(t), 1)

	// Same concept partitions: every pair of tags agrees on whether they
	// share a concept.
	tags := embedded.Tags()
	for a := range tags {
		for b := range tags {
			ca1, _ := embedded.ConceptOf(tags[a])
			cb1, _ := embedded.ConceptOf(tags[b])
			ca2, _ := exact.ConceptOf(tags[a])
			cb2, _ := exact.ConceptOf(tags[b])
			if (ca1 == cb1) != (ca2 == cb2) {
				t.Fatalf("partition disagreement on (%s,%s): embedding %v, exact %v",
					tags[a], tags[b], ca1 == cb1, ca2 == cb2)
			}
		}
	}

	// Same rankings.
	for _, q := range [][]string{{"mp3"}, {"audio", "songs"}, {"golang"}, {"code", "compiler"}} {
		ra := embedded.Query(NewQuery(q))
		rb := exact.Query(NewQuery(q))
		if len(ra) != len(rb) {
			t.Fatalf("query %v: %d vs %d results", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Resource != rb[i].Resource || math.Abs(ra[i].Score-rb[i].Score) > 1e-12 {
				t.Fatalf("query %v result %d: %+v vs %+v", q, i, ra[i], rb[i])
			}
		}
	}

	// Same distances within tolerance (matrix path vs embedding path
	// round differently).
	d1, err := embedded.Distance("audio", "mp3")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := exact.Distance("audio", "mp3")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("distance diverges: %v vs %v", d1, d2)
	}
}

// buildExactPipeline runs the seed pipeline — the dense D̂, spectrally
// clustered (core.Options.ExactSpectral) — over the structured test
// corpus, with the public configuration mapped exactly as Build maps it.
func buildExactPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	cfg := testConfig()
	ds, err := cleanSource(FromAssignments(corpus()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := coreOptions(buildSettings{cfg: cfg}, ds.Stats())
	opts.ExactSpectral = true
	p, err := core.Build(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildV1Bytes runs the exact pipeline and serializes it in the legacy
// quadratic v1 format. withDecomp false drops the Tucker section,
// producing a file that can only be served from the dense matrix.
func buildV1Bytes(t *testing.T, withDecomp bool) ([]byte, *core.Pipeline, *tagging.Dataset) {
	t.Helper()
	cfg := testConfig()
	p := buildExactPipeline(t)
	ds := p.DS
	st := ds.Stats()
	decomp := p.Decomposition
	if !withDecomp {
		decomp = nil
	}
	var buf bytes.Buffer
	if err := codec.WriteV1(&buf, &codec.Model{ //nolint:staticcheck // migration test exercises the legacy writer
		Lowercase:   cfg.Lowercase,
		Assignments: st.Assignments,
		Users:       ds.Users.Names(),
		Tags:        ds.Tags.Names(),
		Resources:   ds.Resources.Names(),
		Decomp:      decomp,
		Distances:   p.Distances,
		Assign:      p.Assign,
		K:           p.K,
		Index:       p.Index,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), p, ds
}

// TestLoadV1ModelUpgradesToEmbedding proves the migration path: a legacy
// v1 model loads, serves distances from a derived embedding that agrees
// with the stored matrix within float tolerance, and re-saves as a
// (much smaller) v2 file with identical rankings.
func TestLoadV1ModelUpgradesToEmbedding(t *testing.T) {
	v1Bytes, p, ds := buildV1Bytes(t, true)

	eng, err := Load(bytes.NewReader(v1Bytes))
	if err != nil {
		t.Fatal(err)
	}
	if eng.EmbeddingDim() == 0 {
		t.Fatal("v1 model with decomposition must gain an embedding on load")
	}
	if eng.Stats().EmbeddingDim != eng.EmbeddingDim() {
		t.Fatal("stats embedding dim inconsistent")
	}

	// Derived distances agree with the v1 matrix.
	n := ds.Tags.Len()
	for i := range n {
		for j := range n {
			got, err := eng.Distance(ds.Tags.Name(i), ds.Tags.Name(j))
			if err != nil {
				t.Fatal(err)
			}
			if want := p.Distances.At(i, j); math.Abs(got-want) > 1e-9 {
				t.Fatalf("distance(%d,%d) = %v, v1 matrix %v", i, j, got, want)
			}
		}
	}

	// Re-save: upgrades in place to v2, strictly smaller, same rankings.
	var v2 bytes.Buffer
	if err := eng.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= len(v1Bytes) {
		t.Fatalf("v2 file (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), len(v1Bytes))
	}
	upgraded, err := Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]string{{"mp3"}, {"audio", "songs"}, {"code"}} {
		a := eng.Query(NewQuery(q))
		b := upgraded.Query(NewQuery(q))
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v result %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

// TestLoadV2ModelGainsLifecycleDefaults proves the v2 → v3 migration
// path: a model saved in the previous (v2) format loads with lifecycle
// defaults — version normalized to 1, no fingerprint, no warm factors —
// and re-saving upgrades it in place to v3 with identical rankings.
func TestLoadV2ModelGainsLifecycleDefaults(t *testing.T) {
	eng := buildCorpus(t)
	var v2 bytes.Buffer
	if err := codec.WriteV2(&v2, &codec.Model{ //nolint:staticcheck // migration test exercises the v2 writer
		Lowercase:   true,
		Assignments: eng.Stats().Assignments,
		Users:       eng.users,
		Tags:        eng.tags.Names(),
		Resources:   eng.resources.Names(),
		CoreDims:    eng.Stats().CoreDims,
		Fit:         eng.Stats().Fit,
		Embedding:   eng.emb.Matrix(),
		Assign:      eng.assign,
		K:           eng.k,
		Index:       eng.index,
	}); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version() != 1 {
		t.Fatalf("v2 model version %d, want normalized 1", loaded.Version())
	}
	if loaded.SourceFingerprint() != "" {
		t.Fatalf("v2 model fingerprint %q, want unknown", loaded.SourceFingerprint())
	}
	if loaded.Stats().Sweeps != 0 {
		t.Fatalf("v2 model sweeps %d, want 0 (not recorded)", loaded.Stats().Sweeps)
	}

	// Re-save upgrades to v3; rankings are unchanged.
	var v3 bytes.Buffer
	if err := loaded.Save(&v3); err != nil {
		t.Fatal(err)
	}
	upgraded, err := Load(&v3)
	if err != nil {
		t.Fatal(err)
	}
	if upgraded.Version() != 1 {
		t.Fatalf("upgraded version %d, want 1", upgraded.Version())
	}
	for _, q := range [][]string{{"mp3"}, {"audio", "songs"}, {"code"}} {
		a := loaded.Query(NewQuery(q))
		b := upgraded.Query(NewQuery(q))
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v result %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

// TestLoadV1ModelWarmStartsFromDecomposition: v1 files ship the full
// decomposition, so the loaded engine can warm-start a NewIndex even
// though v1 predates the warm-start section.
func TestLoadV1ModelWarmStartsFromDecomposition(t *testing.T) {
	v1Bytes, _, _ := buildV1Bytes(t, true)
	legacy, err := Load(bytes.NewReader(v1Bytes))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(context.Background(), FromAssignments(corpus()),
		WithConfig(testConfig()), WithPreviousModel(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Snapshot().Version(); got != 2 {
		t.Fatalf("warm-started version %d, want 2", got)
	}
}

// TestRelatedTagsMatchesLegacyScan pins the heap-based RelatedTags to
// the result a dense-matrix scan produces: a v1 model without a Tucker
// section loads onto the matrix fallback (EmbeddingDim 0, Save refused),
// and both paths must rank related tags identically.
func TestRelatedTagsMatchesLegacyScan(t *testing.T) {
	v1Bytes, _, _ := buildV1Bytes(t, false)
	legacy, err := Load(bytes.NewReader(v1Bytes))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.EmbeddingDim() != 0 {
		t.Fatal("decomposition-free v1 model must fall back to the dense matrix")
	}
	if err := legacy.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("matrix-backed legacy engine must refuse to save as v2")
	}

	// The two engines compute D̂ through different float paths (matrix
	// lookup vs embedding row distance), so exact ties can land in the
	// last ulp in either order. Compare rank-wise distances and per-tag
	// distances rather than positional tag names.
	fresh := buildCorpus(t)
	for _, tag := range fresh.Tags() {
		for _, n := range []int{1, 2, 0} {
			a, err := fresh.RelatedTags(tag, n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := legacy.RelatedTags(tag, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("tag %q n=%d: %d vs %d related", tag, n, len(a), len(b))
			}
			for i := range a {
				if math.Abs(a[i].Distance-b[i].Distance) > 1e-9 {
					t.Fatalf("tag %q n=%d rank %d: distance %v vs %v", tag, n, i, a[i].Distance, b[i].Distance)
				}
				if i > 0 && a[i].Distance < a[i-1].Distance {
					t.Fatalf("tag %q: related list not ascending: %+v", tag, a)
				}
			}
		}
		// Full lists must agree tag-by-tag.
		a, _ := fresh.RelatedTags(tag, 0)
		b, _ := legacy.RelatedTags(tag, 0)
		byTag := make(map[string]float64, len(b))
		for _, r := range b {
			byTag[r.Tag] = r.Distance
		}
		for _, r := range a {
			want, ok := byTag[r.Tag]
			if !ok {
				t.Fatalf("tag %q: %q missing from legacy list", tag, r.Tag)
			}
			if math.Abs(r.Distance-want) > 1e-9 {
				t.Fatalf("tag %q → %q: distance %v vs %v", tag, r.Tag, r.Distance, want)
			}
		}
	}
}
