package cubelsi

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tagging"
)

// splitCorpus splits the test corpus into a base and a small trailing
// delta (the last code user's assignments). Applying the delta to an
// index built on the base reproduces the full corpus in the original
// insertion order, so a full rebuild over corpus() sees the exact same
// cleaned dataset.
func splitCorpus() (base, delta []Assignment) {
	all := corpus()
	return all[:len(all)-8], all[len(all)-8:]
}

func queriesUnderTest() [][]string {
	return [][]string{{"mp3"}, {"audio", "songs"}, {"golang"}, {"code", "compiler"}, {"songs", "golang"}}
}

func requireSameRankings(t *testing.T, a, b *Engine, label string) {
	t.Helper()
	for _, q := range queriesUnderTest() {
		ra := a.Query(NewQuery(q))
		rb := b.Query(NewQuery(q))
		if len(ra) != len(rb) {
			t.Fatalf("%s: query %v: %d vs %d results", label, q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: query %v result %d: %+v vs %+v", label, q, i, ra[i], rb[i])
			}
		}
	}
}

// TestApplyMatchesFullRebuildGolden is the lifecycle golden parity test:
// warm-start Apply of a delta must produce bit-identical rankings to a
// cold full rebuild over the merged corpus — on the paper-style example
// the warm start is an accelerator, never an approximation.
func TestApplyMatchesFullRebuildGolden(t *testing.T) {
	base, delta := splitCorpus()

	idx, err := NewIndex(context.Background(), FromAssignments(base), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	v1 := idx.Snapshot().Version()
	if v1 != 1 {
		t.Fatalf("fresh index version %d, want 1", v1)
	}

	rep, err := idx.Apply(context.Background(), Delta{Add: delta})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 {
		t.Fatalf("post-apply version %d, want 2", rep.Version)
	}
	if rep.AddedAssignments != len(delta) {
		t.Fatalf("applied %d assignments, want %d", rep.AddedAssignments, len(delta))
	}
	if rep.Sweeps < 1 {
		t.Fatalf("report = %+v", rep)
	}

	full, err := Build(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	applied := idx.Snapshot()
	if applied.Version() != 2 {
		t.Fatalf("snapshot version %d, want 2", applied.Version())
	}

	// Same cleaned corpus: fingerprints must agree exactly.
	if applied.SourceFingerprint() != full.SourceFingerprint() || applied.SourceFingerprint() == "" {
		t.Fatalf("fingerprints diverge: %q vs %q", applied.SourceFingerprint(), full.SourceFingerprint())
	}
	// Same partition, same rankings.
	tags := full.Tags()
	for _, a := range tags {
		for _, b := range tags {
			ca1, _ := applied.ConceptOf(a)
			cb1, _ := applied.ConceptOf(b)
			ca2, _ := full.ConceptOf(a)
			cb2, _ := full.ConceptOf(b)
			if (ca1 == cb1) != (ca2 == cb2) {
				t.Fatalf("partition disagreement on (%s,%s)", a, b)
			}
		}
	}
	requireSameRankings(t, applied, full, "apply vs rebuild")
}

// TestApplyRemovalsAndNoOp exercises retraction and set semantics.
func TestApplyRemovalsAndNoOp(t *testing.T) {
	base, delta := splitCorpus()
	idx, err := NewIndex(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}

	// Removing the tail delta must leave the base corpus: compare against
	// a fresh build over base.
	rep, err := idx.Apply(context.Background(), Delta{Remove: delta})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedAssignments != len(delta) || rep.AddedAssignments != 0 {
		t.Fatalf("report = %+v", rep)
	}
	baseEng, err := Build(context.Background(), FromAssignments(base), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := idx.Snapshot().SourceFingerprint(), baseEng.SourceFingerprint(); got != want {
		t.Fatalf("post-removal fingerprint %q, want %q", got, want)
	}

	// Re-adding and re-removing in one delta: removals apply first, so
	// the triple ends up present.
	rep, err = idx.Apply(context.Background(), Delta{Add: delta[:1], Remove: delta[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedAssignments != 1 || rep.RemovedAssignments != 0 {
		t.Fatalf("re-add report = %+v", rep)
	}

	// Removing and re-adding a LIVE triple in one delta is a net no-op:
	// the pair cancels, no rebuild, no version bump.
	vBefore := idx.Snapshot().Version()
	rep, err = idx.Apply(context.Background(), Delta{Add: delta[:1], Remove: delta[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedAssignments != 0 || rep.RemovedAssignments != 0 || rep.Version != vBefore {
		t.Fatalf("net-zero delta not cancelled: %+v", rep)
	}

	// A no-op delta publishes nothing: same version, zero report.
	before := idx.Snapshot().Version()
	rep, err = idx.Apply(context.Background(), Delta{Add: delta[:1], Remove: base[len(base):]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != before || rep.Sweeps != 0 {
		t.Fatalf("no-op report = %+v (version before %d)", rep, before)
	}
	if idx.Snapshot().Version() != before {
		t.Fatal("no-op delta published a new snapshot")
	}

	// Empty fields are rejected up front.
	if _, err := idx.Apply(context.Background(), Delta{Add: []Assignment{{User: "u"}}}); err == nil {
		t.Fatal("want error for empty-field assignment")
	}
}

// TestApplyRollbackOnFailure proves a failed Apply leaves the index
// exactly as it was: removing the whole corpus fails cleaning, and the
// next (valid) Apply still sees every original assignment.
func TestApplyRollbackOnFailure(t *testing.T) {
	idx, err := NewIndex(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Snapshot()

	if _, err := idx.Apply(context.Background(), Delta{Remove: corpus()}); err == nil {
		t.Fatal("removing the entire corpus must fail cleaning")
	}
	if idx.Snapshot() != before {
		t.Fatal("failed Apply swapped the snapshot")
	}

	// The log rolled back: a subsequent no-op add of an existing triple
	// reports zero changes (the triple is still live).
	rep, err := idx.Apply(context.Background(), Delta{Add: corpus()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedAssignments != 0 || rep.Version != before.Version() {
		t.Fatalf("post-rollback report = %+v", rep)
	}
}

// TestIndexConcurrentSearchAndApply is the hot-swap race test: readers
// hammer Query and SearchBatch on snapshots while a writer applies
// deltas. Under -race this proves no torn reads; the version assertions
// prove monotonic publication.
func TestIndexConcurrentSearchAndApply(t *testing.T) {
	base, delta := splitCorpus()
	idx, err := NewIndex(context.Background(), FromAssignments(base), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var maxSeen atomic.Uint64
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				eng := idx.Snapshot()
				v := eng.Version()
				// Versions a reader observes never decrease.
				for {
					prev := maxSeen.Load()
					if v <= prev || maxSeen.CompareAndSwap(prev, v) {
						break
					}
				}
				res := eng.Query(NewQuery([]string{"mp3"}, WithLimit(5)))
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Error("torn read: scores out of order")
						return
					}
				}
				batches, err := eng.SearchBatch([]Query{
					NewQuery([]string{"audio"}),
					NewQuery([]string{"golang"}),
				})
				if err != nil || len(batches) != 2 {
					t.Error("torn batch")
					return
				}
			}
		}()
	}

	want := uint64(1)
	for round := range 4 {
		d := Delta{Add: delta}
		if round%2 == 1 {
			d = Delta{Remove: delta}
		}
		rep, err := idx.Apply(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		want++
		if rep.Version != want {
			t.Fatalf("round %d: version %d, want %d", round, rep.Version, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	if maxSeen.Load() > want {
		t.Fatalf("readers saw version %d beyond last published %d", maxSeen.Load(), want)
	}
}

// TestSaveLoadPreservesLifecycle: version, fingerprint and warm factors
// survive the model file, and a loaded model warm-starts a NewIndex.
func TestSaveLoadPreservesLifecycle(t *testing.T) {
	base, delta := splitCorpus()
	idx, err := NewIndex(context.Background(), FromAssignments(base), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(context.Background(), Delta{Add: delta}); err != nil {
		t.Fatal(err)
	}
	eng := idx.Snapshot()

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != eng.Version() {
		t.Fatalf("version %d, want %d", restored.Version(), eng.Version())
	}
	if restored.SourceFingerprint() != eng.SourceFingerprint() || restored.SourceFingerprint() == "" {
		t.Fatalf("fingerprint %q, want %q", restored.SourceFingerprint(), eng.SourceFingerprint())
	}
	if restored.Stats() != eng.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", restored.Stats(), eng.Stats())
	}

	// The restored model warm-starts the next day's index build over the
	// full corpus; the lineage version keeps counting.
	idx2, err := NewIndex(context.Background(), FromAssignments(corpus()),
		WithConfig(testConfig()), WithPreviousModel(restored))
	if err != nil {
		t.Fatal(err)
	}
	warmed := idx2.Snapshot()
	if warmed.Version() != restored.Version()+1 {
		t.Fatalf("warm-started version %d, want %d", warmed.Version(), restored.Version()+1)
	}
	full, err := Build(context.Background(), FromAssignments(corpus()), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRankings(t, warmed, full, "warm-started NewIndex vs cold Build")
}

// TestApplyMatchesCleanedNames pins delta set semantics to the names
// the engine exposes: with Lowercase on, a triple that arrived as
// "Jazz" is removable as "jazz", and re-adding a case variant of a
// live triple is a no-op instead of a phantom rebuild.
func TestApplyMatchesCleanedNames(t *testing.T) {
	assignments := corpus()
	// The corpus arrives with a mixed-case spelling of one triple.
	mixed := assignments[0]
	mixed.Tag = strings.ToUpper(mixed.Tag)
	assignments[0] = mixed

	idx, err := NewIndex(context.Background(), FromAssignments(assignments), WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Snapshot().Version()

	// Adding the lowercase variant of the live mixed-case triple must be
	// a no-op, not an effective add that pays for a rebuild.
	lower := mixed
	lower.Tag = strings.ToLower(lower.Tag)
	rep, err := idx.Apply(context.Background(), Delta{Add: []Assignment{lower}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedAssignments != 0 || rep.Version != before {
		t.Fatalf("case-variant add not a no-op: %+v", rep)
	}

	// Removing by the engine-visible (lowercase) name must retract the
	// assignment that arrived mixed-case.
	rep, err = idx.Apply(context.Background(), Delta{Remove: []Assignment{lower}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedAssignments != 1 {
		t.Fatalf("engine-visible removal missed the mixed-case triple: %+v", rep)
	}
}

// TestWarmStartPathValidatesRatios: the warm-started NewIndex build
// must reject invalid reduction ratios with the same error the cold
// path returns, not panic inside tucker.FromRatios.
func TestWarmStartPathValidatesRatios(t *testing.T) {
	prev := buildCorpus(t)
	cfg := testConfig()
	cfg.ReductionRatios = [3]float64{0.5, 2, 2}
	_, err := NewIndex(context.Background(), FromAssignments(corpus()),
		WithConfig(cfg), WithPreviousModel(prev))
	if err == nil || !strings.Contains(err.Error(), "reduction ratio") {
		t.Fatalf("err = %v, want reduction-ratio error", err)
	}
}

// TestAssignmentLogCompaction: tombstones are dropped once they
// outnumber live entries, and the materialized dataset is unaffected.
func TestAssignmentLogCompaction(t *testing.T) {
	keep := Assignment{User: "u", Tag: "keep", Resource: "r"}
	raw := tagging.NewDataset()
	raw.Add(keep.User, keep.Tag, keep.Resource)
	l := newAssignmentLog(raw, true)

	// Churn many distinct ephemeral triples through the log.
	for i := range 100 {
		a := Assignment{User: "u", Tag: "t" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Resource: "r"}
		l.apply(Delta{Add: []Assignment{a}})
		l.apply(Delta{Remove: []Assignment{a}})
		l.compact()
	}
	if len(l.order) > 3 || len(l.live) > 3 {
		t.Fatalf("log grew with churn: %d entries, %d keys (dead=%d)", len(l.order), len(l.live), l.dead)
	}
	ds := l.dataset()
	if got := ds.Stats().Assignments; got != 1 {
		t.Fatalf("dataset has %d assignments, want the 1 live one", got)
	}
	if _, ok := ds.Tags.Lookup("keep"); !ok {
		t.Fatal("live assignment lost in compaction")
	}
}

// TestSaveWithoutWarmFactors: the lean save drops the warm section —
// strictly smaller file, identical rankings, but no warm-start
// capability on reload.
func TestSaveWithoutWarmFactors(t *testing.T) {
	eng := buildCorpus(t)
	var full, lean bytes.Buffer
	if err := eng.Save(&full); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&lean, WithoutWarmFactors()); err != nil {
		t.Fatal(err)
	}
	if lean.Len() >= full.Len() {
		t.Fatalf("lean model (%d bytes) not smaller than full (%d bytes)", lean.Len(), full.Len())
	}

	leanEng, err := Load(&lean)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRankings(t, leanEng, eng, "lean save")
	_, err = NewIndex(context.Background(), FromAssignments(corpus()),
		WithConfig(testConfig()), WithPreviousModel(leanEng))
	if err == nil || !strings.Contains(err.Error(), "warm-start") {
		t.Fatalf("err = %v, want the lean model's warm-start capability error", err)
	}
}
