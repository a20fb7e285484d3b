package cubelsi_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	cubelsi "repro"
)

// exampleCorpus returns a small two-community corpus: music tags on
// music resources, code tags on code resources.
func exampleCorpus() []cubelsi.Assignment {
	var out []cubelsi.Assignment
	add := func(u, t, r string) { out = append(out, cubelsi.Assignment{User: u, Tag: t, Resource: r}) }
	music := []string{"audio", "mp3", "songs"}
	code := []string{"code", "golang", "compiler"}
	for ui := range 6 {
		mu, cu := fmt.Sprintf("mu%d", ui), fmt.Sprintf("cu%d", ui)
		for ti := range 2 {
			for _, r := range []string{"m1", "m2", "m3", "m4"} {
				add(mu, music[(ui+ti)%3], r)
			}
			for _, r := range []string{"c1", "c2", "c3", "c4"} {
				add(cu, code[(ui+ti)%3], r)
			}
		}
	}
	return out
}

// ExampleNewIngestor fronts an Index with a streaming Ingestor: records
// are offered one at a time, deduplicated against per-client sequence
// numbers, and micro-batched into Index.Apply under the configured
// flush policy (count, interval or drift — whichever fires first).
func ExampleNewIngestor() {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1

	ctx := context.Background()
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromAssignments(exampleCorpus()), cubelsi.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}

	// The three flush triggers compose: a batch flushes when it reaches
	// 256 records, when an hour passes, or when the pending changes'
	// embedding-drift estimate crosses 10% of the vocabulary — whichever
	// comes first. (The interval is pushed out here so the example flush
	// below is deterministically the explicit one.)
	ing, err := cubelsi.NewIngestor(idx,
		cubelsi.WithFlushEvery(256),
		cubelsi.WithFlushInterval(time.Hour),
		cubelsi.WithFlushDrift(0.10),
		cubelsi.WithQueueCapacity(4096),
		cubelsi.WithIdempotencyWindow(1024))
	if err != nil {
		log.Fatal(err)
	}
	defer ing.Close()

	rec := cubelsi.StreamRecord{User: "newbie", Tag: "golang", Resource: "c1", Client: "feed", Seq: 1}
	first, _ := ing.Offer(rec)
	redelivered, _ := ing.Offer(rec) // same client+seq: absorbed
	fmt.Printf("first offer: %v, redelivery: %v\n", first, redelivered)

	// Flush synchronously: when it returns, the batch is applied and the
	// new snapshot serves.
	if _, err := ing.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving model v%d after flush\n", idx.Snapshot().Version())
	// Output:
	// first offer: accepted, redelivery: duplicate
	// serving model v2 after flush
}

// ExampleWithMapped saves a model and re-opens it with LoadFile
// memory-mapped: numeric sections alias the file mapping instead of
// being decoded onto the heap, so even multi-gigabyte models open in
// milliseconds. The engine owns the mapping — Close releases it.
func ExampleWithMapped() {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1

	eng, err := cubelsi.Build(context.Background(),
		cubelsi.FromAssignments(exampleCorpus()), cubelsi.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "cubelsi-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.clsi")
	if err := eng.SaveFile(path); err != nil {
		log.Fatal(err)
	}

	mapped, err := cubelsi.LoadFile(path, cubelsi.WithMapped())
	if err != nil {
		log.Fatal(err)
	}
	defer mapped.Close()

	st := mapped.Stats()
	fmt.Printf("mapped model v%d: %d tags, %d concepts\n",
		mapped.Version(), st.Tags, st.Concepts)
	results := mapped.Query(cubelsi.NewQuery([]string{"golang"}, cubelsi.WithLimit(1)))
	fmt.Printf("top golang hit: %s\n", results[0].Resource)
	// Output:
	// mapped model v1: 6 tags, 2 concepts
	// top golang hit: c1
}

// ExampleIndex_Apply builds an updatable index, folds a new user's
// assignments in with a warm-started incremental rebuild, and shows the
// hot-swapped snapshot serving the merged corpus.
func ExampleIndex_Apply() {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	cfg.Concepts = 2
	cfg.MinSupport = 3
	cfg.Seed = 1

	ctx := context.Background()
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromAssignments(exampleCorpus()), cubelsi.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}

	// Readers hold immutable snapshots; Apply publishes new ones.
	before := idx.Snapshot()

	report, err := idx.Apply(ctx, cubelsi.Delta{
		Add: []cubelsi.Assignment{
			{User: "newbie", Tag: "golang", Resource: "c1"},
			{User: "newbie", Tag: "compiler", Resource: "c1"},
			{User: "newbie", Tag: "golang", Resource: "c4"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	after := idx.Snapshot()
	fmt.Printf("versions: %d -> %d\n", before.Version(), after.Version())
	// The report also carries the warm-started ALS sweep count, the fit,
	// how many tags moved/re-clustered, and per-stage timings.
	fmt.Printf("applied %d assignments, warm-started rebuild ran: %v\n",
		report.AddedAssignments, report.Sweeps > 0)

	results := after.Query(cubelsi.NewQuery([]string{"golang"}, cubelsi.WithLimit(1)))
	fmt.Printf("top golang hit: %s\n", results[0].Resource)
	// Output:
	// versions: 1 -> 2
	// applied 3 assignments, warm-started rebuild ran: true
	// top golang hit: c1
}
