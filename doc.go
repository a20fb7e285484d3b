// Package cubelsi is the public API of the CubeLSI reproduction
// (Bi, Lee, Kao, Cheng: "CubeLSI: An Effective and Efficient Method for
// Searching Resources in Social Tagging Systems", ICDE 2011).
//
// # Offline pipeline
//
// An Engine ingests (user, tag, resource) assignments and runs the
// offline pipeline of the paper's Figure 1: data cleaning, third-order
// tensor construction, truncated Tucker decomposition by alternating
// least squares, purified pairwise tag distances via the Theorem 1/2
// shortcuts (the dense purified tensor is never materialized), and
// concept distillation by k-means over the Theorem 2 tag embedding
// E = Λ₂·Y⁽²⁾. Online queries are then answered by cosine similarity in
// the bag-of-concepts vector space.
//
// The offline build is context-aware and reports per-stage progress:
//
//	eng, err := cubelsi.Build(ctx, cubelsi.FromTSV(f),
//		cubelsi.WithConfig(cfg),
//		cubelsi.WithProgress(func(p cubelsi.Progress) {
//			log.Printf("%s done=%v %v", p.Stage, p.Done, p.Elapsed)
//		}))
//
// Builds fan out across one bounded in-process worker pool, sized by
// WithTuckerParallelism, which never changes the output: factors,
// partitions and rankings are bit-identical at any worker count.
//
// # Models
//
// Built engines serialize, so offline build and online serving are
// separate processes (cmd/cubelsi -save, cmd/cubelsiserve -model):
//
//	err = eng.Save(w)
//	eng, err = cubelsi.Load(r)
//
// The current format (v5) is aligned and offset-indexed so a model
// file can be memory-mapped and served zero-copy — LoadFile with
// WithMapped opens a multi-gigabyte model in milliseconds — and can
// carry optional int8/float16 quantized embedding views for ANN
// candidate generation (WithInt8Embedding, WithFloat16Embedding) and
// the compacted user-mode factors personalized queries blend in
// (WithUserFactors). Engines derived with WithANN answer RelatedTags
// through an inverted-file index over the concept centroids instead of
// the exact scan. v4 files (v5 without the user-factor section) load
// through the same calls; the streaming formats v1–v3 are rejected with
// a message naming the commit whose cubelsi converts them.
//
// # Queries
//
// Queries are values with composable options, and a batch answers many
// of them in one call:
//
//	results := eng.Query(cubelsi.NewQuery([]string{"jazz", "saxophone"},
//		cubelsi.WithLimit(10), cubelsi.WithMinScore(0.05)))
//	batches, err := eng.SearchBatch(queries)
//
// A batch runs its queries in order on the caller's goroutine: a query
// costs microseconds, less than a worker pool's hand-offs would, and a
// server already runs each request on a goroutine of its own.
//
// # Incremental lifecycle
//
// Growing corpora use the incremental lifecycle instead of one-shot
// Build: an Index owns the assignment log and publishes immutable,
// versioned Engine snapshots. Apply folds an assignment delta in — the
// ALS decomposition warm-starts from the previous factor matrices and
// only tags whose embedding rows moved are re-clustered — and swaps the
// new snapshot in atomically under live queries:
//
//	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromTSVFile("corpus.tsv"))
//	report, err := idx.Apply(ctx, cubelsi.Delta{Add: newAssignments})
//	eng := idx.Snapshot() // immutable; eng.Version() increments per Apply
//
// # Streaming ingestion
//
// When deltas arrive as a continuous stream rather than batched calls,
// an Ingestor fronts the Index: records are offered one at a time,
// compacted in place (an add and a remove of the same triple cancel),
// deduplicated against per-client sequence numbers, and micro-batched
// into Apply under a flush policy — every N records, every T of wall
// clock, or when the estimated embedding drift of the pending batch
// crosses a threshold, whichever fires first. A bounded queue gives
// producers backpressure instead of unbounded memory:
//
//	ing, err := cubelsi.NewIngestor(idx,
//		cubelsi.WithFlushEvery(256),
//		cubelsi.WithFlushInterval(2*time.Second),
//		cubelsi.WithFlushDrift(0.05))
//	status, err := ing.Offer(cubelsi.StreamRecord{
//		User: "u9", Tag: "jazz", Resource: "r3", Client: "feed", Seq: 17})
//	report, err := ing.Flush(ctx) // synchronous: returns once the batch serves
//
// cmd/cubelsiserve exposes the Ingestor as POST /stream, its one write
// endpoint (NDJSON, with an optional long-lived firehose mode and a
// ?flush=1 that answers the flush's report), and its replication plane
// (internal/replicate) distributes each published snapshot to read-only
// replicas — SHA-256-verified, monotonically versioned. See
// docs/OPERATIONS.md for the operator's view of the whole fleet.
package cubelsi
