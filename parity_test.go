package cubelsi

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
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

// scanRelated returns the reference RelatedTags over the exact
// pipeline's dense D̂: a brute-force scan of the probe tag's row, the
// top n by (distance, tag id), displayed by (distance, tag name), with
// n ≤ 0 and n > |T|−1 meaning every other tag.
func scanRelated(t *testing.T, p *core.Pipeline) func(tag string, n int) []RelatedTag {
	return func(tag string, n int) []RelatedTag {
		id, ok := p.DS.Tags.Lookup(tag)
		if !ok {
			t.Fatalf("unknown tag %q", tag)
		}
		var out []RelatedTag
		for j := range p.DS.Tags.Len() {
			if j != id {
				out = append(out, RelatedTag{Tag: p.DS.Tags.Name(j), Distance: p.Distances.At(id, j)})
			}
		}
		// Stable by distance over the id-ordered row: membership by
		// (distance, id), then display by (distance, name).
		sort.SliceStable(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
		if n > 0 && n < len(out) {
			out = out[:n]
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Distance != out[b].Distance {
				return out[a].Distance < out[b].Distance
			}
			return out[a].Tag < out[b].Tag
		})
		return out
	}
}

// TestRelatedTagsMatchesLegacyScan pins the heap-based RelatedTags to
// the result a dense-matrix scan of the exact pipeline's D̂ produces.
func TestRelatedTagsMatchesLegacyScan(t *testing.T) {
	scan := scanRelated(t, buildExactPipeline(t))

	// The engine and the scan compute D̂ through different float paths
	// (embedding row distance vs the dense matrix), so exact ties can
	// land in the last ulp in either order. Compare rank-wise distances
	// and per-tag distances rather than positional tag names.
	fresh := buildCorpus(t)
	for _, tag := range fresh.Tags() {
		for _, n := range []int{1, 2, 0} {
			a, err := fresh.RelatedTags(tag, n)
			if err != nil {
				t.Fatal(err)
			}
			b := scan(tag, n)
			if len(a) != len(b) {
				t.Fatalf("tag %q n=%d: %d vs %d related", tag, n, len(a), len(b))
			}
			for i := range a {
				if math.Abs(a[i].Distance-b[i].Distance) > 1e-9 || (i > 0 && a[i].Distance < a[i-1].Distance) {
					t.Fatalf("tag %q n=%d rank %d: %+v vs scan %+v", tag, n, i, a, b)
				}
			}
		}
		// Full lists must agree tag-by-tag.
		a, _ := fresh.RelatedTags(tag, 0)
		byTag := make(map[string]float64)
		for _, r := range scan(tag, 0) {
			byTag[r.Tag] = r.Distance
		}
		for _, r := range a {
			if want, ok := byTag[r.Tag]; !ok || math.Abs(r.Distance-want) > 1e-9 {
				t.Fatalf("tag %q → %q: distance %v, scan %v (listed %v)", tag, r.Tag, r.Distance, want, ok)
			}
		}
	}
}
