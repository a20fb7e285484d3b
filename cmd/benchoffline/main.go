// Command benchoffline measures the offline-pipeline performance profile
// and writes it to a JSON file (BENCH_offline.json by default), so the
// perf trajectory — build time, model size, query latency — is tracked
// across PRs.
//
// Sections recorded:
//
//   - build: wall-clock of the embedding-first offline build vs the
//     exact-spectral (seed) pipeline on a generated corpus, per stage.
//   - decompose: the ALS decomposition timed across worker-pool sizes
//     plus the sketched path.
//   - update: the incremental lifecycle — warm-started Index.Apply of a
//     ~1% assignment delta vs a cold full rebuild (sweep counts and
//     wall clock; the CI perf gate tracks both timings).
//   - stream: the update delta offered record-by-record through the
//     streaming Ingestor (the /stream micro-batching engine) — enqueue
//     rate plus the flush-to-visible latency of the closing synchronous
//     flush (the CI perf gate tracks both).
//   - ann: sublinear RelatedTags serving — the IVF index vs the exact
//     scan at the tags10k and tags100k vocabulary scales (p99 at the
//     smallest nprobe reaching recall@10 ≥ 0.95), plus heap-decoded v3
//     vs memory-mapped v4 model loading at serving scale.
//   - rerank: the two-stage retrieval pipeline — concept-probing
//     candidate generation plus exact rerank across a depth ladder,
//     scored (MAP, precision@10) against the exact full-depth ranking
//     as ground truth, with p99 latency per depth, at the tags10k and
//     tags100k scales.
//   - query: online latency percentiles over a generated workload.
//   - size_scaling: encoded model bytes of the v1 (quadratic, dense
//     distance matrix) vs v2+ (linear, |T|×k₂ embedding) formats at
//     growing tag-vocabulary sizes, measured through the real codec.
//
// Usage:
//
//	benchoffline [-preset tiny|delicious|bibsonomy|lastfm|tags10k|tags100k]
//	             [-out BENCH_offline.json] [-scale-tags 1000,5000]
//	             [-skip-exact] [-skip-update] [-update-delta 0.01]
//	             [-skip-ann] [-skip-stream] [-skip-rerank]
//	             [-queries 256]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/tagging"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

type stageMillis struct {
	Tensor    float64 `json:"tensor_ms"`
	Decompose float64 `json:"decompose_ms"`
	Embed     float64 `json:"embed_ms"`
	Cluster   float64 `json:"cluster_ms"`
	Index     float64 `json:"index_ms"`
	Total     float64 `json:"total_ms"`
}

type buildReport struct {
	EmbeddingPath stageMillis  `json:"embedding_path"`
	ExactPath     *stageMillis `json:"exact_path,omitempty"`
	// Speedup is exact total / embedding total (>1 means the embedding
	// path is faster).
	Speedup float64 `json:"speedup,omitempty"`
}

// decomposeWorkerPoint is one timed ALS decomposition at a fixed worker
// pool bound.
type decomposeWorkerPoint struct {
	Workers int     `json:"workers"`
	Millis  float64 `json:"ms"`
}

// sketchPoint records the sketched-ALS run: wall clock plus the fit it
// reached against the exact path's fit.
type sketchPoint struct {
	Millis  float64 `json:"ms"`
	Fit     float64 `json:"fit"`
	Speedup float64 `json:"speedup_vs_exact"`
}

// decomposeReport is the per-stage scaling record for the ALS Tucker
// decomposition: the same exact decomposition timed at 1, 2 and
// GOMAXPROCS workers (factors are bit-identical across the scan), plus
// the sketched path at full parallelism.
type decomposeReport struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	ExactFit   float64                `json:"exact_fit"`
	Workers    []decomposeWorkerPoint `json:"workers"`
	// SpeedupMaxWorkers is ms(workers=1) / ms(workers=GOMAXPROCS).
	SpeedupMaxWorkers float64      `json:"speedup_max_workers"`
	Sketched          *sketchPoint `json:"sketched,omitempty"`
}

// updateReport records the incremental-lifecycle benchmark: a
// warm-started Index.Apply of a small assignment delta versus a cold
// full rebuild over the same merged corpus. The sweep counts are
// recorded next to the wall clock (the tracked lastfm run reads 12 cold
// and 9 warm; the repository benchmark's corpora read 12 both ways, so
// there the warm run's saving is the HOSVD initialisation it skips —
// ROADMAP item 3), and the wall-clock ratio is what the CI perf gate
// tracks.
type updateReport struct {
	// Tags is the cleaned tag-vocabulary size the update ran at;
	// DeltaAssignments is the applied delta size (~1% of the corpus);
	// MoveThreshold is the re-cluster threshold the run used.
	Tags             int     `json:"tags"`
	DeltaAssignments int     `json:"delta_assignments"`
	MoveThreshold    float64 `json:"move_threshold"`

	FullRebuildMS     float64 `json:"full_rebuild_ms"`
	FullRebuildSweeps int     `json:"full_rebuild_sweeps"`

	WarmApplyMS     float64 `json:"warm_apply_ms"`
	WarmApplySweeps int     `json:"warm_apply_sweeps"`
	MovedTags       int     `json:"moved_tags"`
	ReclusteredTags int     `json:"reclustered_tags"`
	FullRecluster   bool    `json:"full_recluster"`

	// SpeedupVsRebuild is full_rebuild_ms / warm_apply_ms.
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`
}

// streamReport records the streaming-ingestion benchmark: the update
// benchmark's holdback delta offered record-by-record through the
// Ingestor (the same micro-batching engine behind cubelsiserve's POST
// /stream), with the automatic flush triggers disabled so the run
// measures exactly two things — how fast records enqueue, and how long
// the closing synchronous flush takes to make them visible (Flush
// returning means the new model version is serving).
type streamReport struct {
	// DeltaAssignments is the streamed record count; Flushes is how many
	// micro-batch flushes the run performed (1 here: the explicit one).
	DeltaAssignments int    `json:"delta_assignments"`
	Flushes          uint64 `json:"flushes"`

	// OfferMS is the wall clock to enqueue the whole delta (validation,
	// idempotency bookkeeping, compaction, drift accounting);
	// IngestPerSec is the resulting enqueue rate.
	OfferMS      float64 `json:"offer_ms"`
	IngestPerSec float64 `json:"ingest_per_sec"`

	// FlushToVisibleMS is the synchronous-flush wall clock: the
	// freshness floor a /stream?flush=1 caller experiences at this
	// corpus scale.
	FlushToVisibleMS float64 `json:"flush_to_visible_ms"`
}

type queryReport struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

type modelReport struct {
	V2Bytes int64   `json:"v2_bytes"`
	V1Bytes int64   `json:"v1_bytes,omitempty"`
	Ratio   float64 `json:"v1_over_v2_ratio,omitempty"`
}

type scalePoint struct {
	Tags    int     `json:"tags"`
	K2      int     `json:"k2"`
	V1Bytes int64   `json:"v1_bytes"`
	V2Bytes int64   `json:"v2_bytes"`
	Ratio   float64 `json:"v1_over_v2_ratio"`
}

type report struct {
	GeneratedAt string          `json:"generated_at"`
	Preset      string          `json:"preset"`
	Users       int             `json:"users"`
	Tags        int             `json:"tags"`
	Resources   int             `json:"resources"`
	Assignments int             `json:"assignments"`
	Build       buildReport     `json:"build"`
	Decompose   decomposeReport `json:"decompose"`
	Update      *updateReport   `json:"update,omitempty"`
	Stream      *streamReport   `json:"stream,omitempty"`
	Ann         *annReport      `json:"ann,omitempty"`
	Rerank      *rerankReport   `json:"rerank,omitempty"`
	Model       modelReport     `json:"model"`
	Query       queryReport     `json:"query"`
	SizeScaling []scalePoint    `json:"size_scaling"`
}

func main() {
	preset := flag.String("preset", "tiny", "corpus preset: tiny, delicious, bibsonomy or lastfm")
	out := flag.String("out", "BENCH_offline.json", "output JSON path")
	scaleTags := flag.String("scale-tags", "1000,5000", "comma-separated tag counts for the size-scaling section")
	skipExact := flag.Bool("skip-exact", false, "skip the exact-spectral comparison build")
	skipDecomposeScan := flag.Bool("skip-decompose-scan", false, "skip the per-worker decompose scaling scan")
	skipUpdate := flag.Bool("skip-update", false, "skip the incremental-update (warm-start vs rebuild) benchmark")
	skipANN := flag.Bool("skip-ann", false, "skip the ANN serving benchmark (IVF vs exact at the tags10k/tags100k scales, plus the mmap load comparison)")
	skipStream := flag.Bool("skip-stream", false, "skip the streaming-ingestion (Ingestor enqueue + flush-to-visible) benchmark")
	skipRerank := flag.Bool("skip-rerank", false, "skip the two-stage retrieval benchmark (concept-probing candidates vs the exact ranking across a rerank-depth ladder)")
	updateDelta := flag.Float64("update-delta", 0.01, "assignment fraction of the update-benchmark delta")
	updateMove := flag.Float64("update-move-threshold", 0.25, "relative row-displacement threshold for the update benchmark's re-clustering (the synthetic corpora are noisier than real folksonomies, so this sits above the library default to keep the move-bounded path — the one the gate must track — engaged)")
	workers := flag.Int("workers", 0, "ALS worker pool bound for the headline builds (0 = all CPUs)")
	numQueries := flag.Int("queries", 256, "query workload size")
	flag.Parse()

	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be non-negative, got %d", *workers))
	}

	params, err := presetParams(*preset)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "benchoffline: generating %s corpus\n", params.Name)
	corpus := datagen.Generate(params)
	st := corpus.Clean.Stats()
	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Preset:      params.Name,
		Users:       st.Users,
		Tags:        st.Tags,
		Resources:   st.Resources,
		Assignments: st.Assignments,
	}

	// Hyper-parameters mirror internal/experiments.NewSetup scaling.
	k := params.NumConcepts()
	j2 := min(st.Tags, (k*28)/10)
	j1 := clampInt(st.Users/7, 16, 80)
	j3 := clampInt(st.Resources/8, 16, 96)
	opts := core.Options{
		Tucker: tucker.Options{
			J1: min(j1, st.Users), J2: j2, J3: min(j3, st.Resources),
			MaxSweeps: 3, Seed: uint64(params.Seed),
			Workers: *workers,
		},
		Spectral: cluster.SpectralOptions{K: k, Seed: params.Seed},
	}

	fmt.Fprintf(os.Stderr, "benchoffline: embedding-first build (|T|=%d, k2=%d)\n", st.Tags, j2)
	p, err := core.Build(context.Background(), corpus.Clean, opts)
	if err != nil {
		fatal(err)
	}
	rep.Build.EmbeddingPath = toStageMillis(p.Times)

	var pe *core.Pipeline
	if !*skipExact {
		fmt.Fprintf(os.Stderr, "benchoffline: exact-spectral build for comparison\n")
		exactOpts := opts
		exactOpts.ExactSpectral = true
		pe, err = core.Build(context.Background(), corpus.Clean, exactOpts)
		if err != nil {
			fatal(err)
		}
		ms := toStageMillis(pe.Times)
		rep.Build.ExactPath = &ms
		if rep.Build.EmbeddingPath.Total > 0 {
			rep.Build.Speedup = ms.Total / rep.Build.EmbeddingPath.Total
		}
	}

	if !*skipDecomposeScan {
		rep.Decompose = scanDecompose(p, opts.Tucker)
	}

	if !*skipUpdate {
		u := benchUpdate(corpus.Clean, opts, params.Seed, *updateDelta, *updateMove)
		rep.Update = &u
	}

	if !*skipStream {
		s := benchStream(corpus.Clean, opts, params.Seed, *updateDelta)
		rep.Stream = &s
	}

	// The ANN section runs at its own fixed scales (the tags10k and
	// tags100k presets) regardless of -preset: sublinear serving only
	// shows up at vocabulary widths the paper-analogue corpora never
	// reach.
	if !*skipANN {
		a := benchANN()
		rep.Ann = &a
	}

	// The rerank section shares the ANN section's fixed scales for the
	// same reason: the quality/latency trade of bounded-depth candidate
	// generation is invisible on the tiny paper-analogue corpora.
	if !*skipRerank {
		r := benchRerank()
		rep.Rerank = &r
	}

	// Model size: the real pipeline serialized the way each format's
	// writer actually ships it — the current format carries the
	// embedding, summary stats and the warm-start factors Engine.Save
	// writes by default; v1 carries the full decomposition plus the
	// dense matrix.
	cj1, cj2, cj3 := p.Decomposition.CoreDims()
	model := &codec.Model{
		Lowercase:   true,
		Assignments: st.Assignments,
		Users:       corpus.Clean.Users.Names(),
		Tags:        corpus.Clean.Tags.Names(),
		Resources:   corpus.Clean.Resources.Names(),
		CoreDims:    [3]int{cj1, cj2, cj3},
		Fit:         p.Decomposition.Fit,
		Warm:        &tucker.WarmStart{Y2: p.Decomposition.Y2, Y3: p.Decomposition.Y3},
		Embedding:   p.Embedding.Matrix(),
		Assign:      p.Assign,
		K:           p.K,
		Index:       p.Index,
	}
	rep.Model.V2Bytes = encodedSize(func(w io.Writer) error { return codec.Write(w, model) })
	if pe != nil {
		// Reuse the exact build's already-materialized matrix — also the
		// faithful v1 payload, since real v1 files shipped exactly it
		// (and no warm section: v1 predates it).
		v1Model := *model
		v1Model.Warm = nil
		v1Model.Decomp = pe.Decomposition
		v1Model.Distances = pe.Distances
		rep.Model.V1Bytes = encodedSize(func(w io.Writer) error { return codec.WriteV1(w, &v1Model) }) //nolint:staticcheck // v1 writer measured intentionally
		rep.Model.Ratio = ratio(rep.Model.V1Bytes, rep.Model.V2Bytes)
	}

	// Query latency over a generated workload.
	queries := corpus.MakeQueries(*numQueries, 3, params.Seed+1000)
	lat := make([]float64, 0, len(queries))
	for _, q := range queries {
		start := time.Now()
		p.Query(q.Tags, 20)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	rep.Query = summarize(lat)

	// Size scaling: real codec byte counts at synthetic vocabulary sizes.
	for _, field := range strings.Split(*scaleTags, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n < 2 {
			fatal(fmt.Errorf("bad -scale-tags entry %q", field))
		}
		k2 := max(2, n/50) // the paper's reduction ratio of 50
		fmt.Fprintf(os.Stderr, "benchoffline: size scaling at |T|=%d (k2=%d)\n", n, k2)
		rep.SizeScaling = append(rep.SizeScaling, measureScale(n, k2))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchoffline: wrote %s\n", *out)
	os.Stdout.Write(data)
}

// scanDecompose re-runs the exact ALS decomposition of the already-built
// tensor at worker bounds 1, 2 and GOMAXPROCS (the factors are
// bit-identical across the scan — only wall clock moves), then the
// sketched path at full parallelism, so the per-stage speedup is
// recorded rather than claimed.
func scanDecompose(p *core.Pipeline, tuck tucker.Options) decomposeReport {
	maxW := runtime.GOMAXPROCS(0)
	rep := decomposeReport{GOMAXPROCS: maxW}
	counts := []int{1}
	if maxW >= 2 {
		counts = append(counts, 2)
	}
	if maxW > 2 {
		counts = append(counts, maxW)
	}
	var exactMS float64
	for _, w := range counts {
		opts := tuck
		opts.Workers = w
		opts.Sketch = tucker.SketchOptions{}
		fmt.Fprintf(os.Stderr, "benchoffline: decompose scan, workers=%d\n", w)
		start := time.Now()
		d, err := tucker.DecomposeContext(context.Background(), p.Tensor, opts)
		if err != nil {
			fatal(err)
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		rep.Workers = append(rep.Workers, decomposeWorkerPoint{Workers: w, Millis: ms})
		rep.ExactFit = d.Fit
		exactMS = ms // last entry runs at the widest pool
	}
	if exactMS > 0 {
		rep.SpeedupMaxWorkers = rep.Workers[0].Millis / exactMS
	}

	sk := tuck
	sk.Workers = maxW
	sk.Sketch = tucker.SketchOptions{Enabled: true}
	fmt.Fprintf(os.Stderr, "benchoffline: decompose scan, sketched (workers=%d)\n", maxW)
	start := time.Now()
	d, err := tucker.DecomposeContext(context.Background(), p.Tensor, sk)
	if err != nil {
		fatal(err)
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	rep.Sketched = &sketchPoint{Millis: ms, Fit: d.Fit}
	if ms > 0 {
		rep.Sketched.Speedup = exactMS / ms
	}
	return rep
}

// benchUpdate measures the incremental lifecycle at the preset's scale:
// hold back ~deltaFrac of the cleaned assignments, build an Index on
// the rest, then time Apply-ing the holdback (warm-started ALS,
// move-bounded re-clustering) against a cold Build over the merged
// corpus. Both paths run with the library-default sweep budget so the
// sweep counts are comparable. moveThr is passed through to
// WithMoveThreshold (with a generous WithMaxMovedFraction) so the
// benchmark exercises — and the CI gate therefore tracks — the
// incremental re-clustering path, not just the full-k-means fallback.
func benchUpdate(ds *tagging.Dataset, opts core.Options, seed int64, deltaFrac, moveThr float64) updateReport {
	var all []cubelsi.Assignment
	for _, a := range ds.Assignments() {
		all = append(all, cubelsi.Assignment{
			User:     ds.Users.Name(a.User),
			Tag:      ds.Tags.Name(a.Tag),
			Resource: ds.Resources.Name(a.Resource),
		})
	}
	nd := int(float64(len(all)) * deltaFrac)
	if nd < 1 {
		nd = 1
	}
	base, delta := all[:len(all)-nd], all[len(all)-nd:]

	// Mirror the scan's hyper-parameters, but on the public lifecycle
	// API: the corpus is pre-cleaned, so cleaning is disabled, and the
	// sweep budget stays at the library default (the tol-based stop is
	// what the warm start accelerates).
	cfg := cubelsi.DefaultConfig()
	cfg.CoreDims = [3]int{opts.Tucker.J1, opts.Tucker.J2, opts.Tucker.J3}
	cfg.Concepts = opts.Spectral.K
	cfg.MinSupport = 0
	cfg.DropSystemTags = false
	cfg.Seed = seed

	ctx := context.Background()
	fmt.Fprintf(os.Stderr, "benchoffline: update benchmark, base build (|Y|=%d)\n", len(base))
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromAssignments(base), cubelsi.WithConfig(cfg),
		cubelsi.WithMoveThreshold(moveThr), cubelsi.WithMaxMovedFraction(0.6))
	if err != nil {
		fatal(err)
	}
	// Both sides are timed the same way — end-to-end wall clock around
	// the public call — so the gated ratio includes Apply's own
	// bookkeeping (log materialization, cleaning, fingerprinting), not
	// just the pipeline stages the report itemizes.
	fmt.Fprintf(os.Stderr, "benchoffline: update benchmark, warm Apply of %d assignments\n", nd)
	start := time.Now()
	urep, err := idx.Apply(ctx, cubelsi.Delta{Add: delta})
	if err != nil {
		fatal(err)
	}
	warmMS := float64(time.Since(start).Nanoseconds()) / 1e6

	fmt.Fprintf(os.Stderr, "benchoffline: update benchmark, cold full rebuild\n")
	start = time.Now()
	full, err := cubelsi.Build(ctx, cubelsi.FromAssignments(all), cubelsi.WithConfig(cfg))
	if err != nil {
		fatal(err)
	}
	fullMS := float64(time.Since(start).Nanoseconds()) / 1e6

	out := updateReport{
		Tags:              full.Stats().Tags,
		DeltaAssignments:  urep.AddedAssignments,
		MoveThreshold:     moveThr,
		FullRebuildMS:     fullMS,
		FullRebuildSweeps: full.Stats().Sweeps,
		WarmApplyMS:       warmMS,
		WarmApplySweeps:   urep.Sweeps,
		MovedTags:         urep.MovedTags,
		ReclusteredTags:   urep.ReclusteredTags,
		FullRecluster:     urep.FullRecluster,
	}
	if warmMS > 0 {
		out.SpeedupVsRebuild = fullMS / warmMS
	}
	return out
}

// benchStream measures the streaming-ingestion path at the preset's
// scale: the same base/delta split as benchUpdate, but the delta
// arrives as a stream of individually offered records (client identity
// and sequence numbers engaged, so the idempotency bookkeeping is in
// the measured path) instead of one Apply call. The automatic flush
// triggers are disabled — count, interval and drift thresholds all out
// of reach — so OfferMS isolates the enqueue cost and the one explicit
// Flush isolates the flush-to-visible latency the CI perf gate tracks.
func benchStream(ds *tagging.Dataset, opts core.Options, seed int64, deltaFrac float64) streamReport {
	var all []cubelsi.Assignment
	for _, a := range ds.Assignments() {
		all = append(all, cubelsi.Assignment{
			User:     ds.Users.Name(a.User),
			Tag:      ds.Tags.Name(a.Tag),
			Resource: ds.Resources.Name(a.Resource),
		})
	}
	nd := int(float64(len(all)) * deltaFrac)
	if nd < 1 {
		nd = 1
	}
	base, delta := all[:len(all)-nd], all[len(all)-nd:]

	cfg := cubelsi.DefaultConfig()
	cfg.CoreDims = [3]int{opts.Tucker.J1, opts.Tucker.J2, opts.Tucker.J3}
	cfg.Concepts = opts.Spectral.K
	cfg.MinSupport = 0
	cfg.DropSystemTags = false
	cfg.Seed = seed

	ctx := context.Background()
	fmt.Fprintf(os.Stderr, "benchoffline: stream benchmark, base build (|Y|=%d)\n", len(base))
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromAssignments(base), cubelsi.WithConfig(cfg))
	if err != nil {
		fatal(err)
	}
	ing, err := cubelsi.NewIngestor(idx,
		cubelsi.WithFlushEvery(len(delta)+1),
		cubelsi.WithFlushInterval(time.Hour),
		cubelsi.WithFlushDrift(-1),
		cubelsi.WithQueueCapacity(len(delta)+1),
	)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "benchoffline: stream benchmark, offering %d records\n", len(delta))
	start := time.Now()
	for i, a := range delta {
		status, err := ing.Offer(cubelsi.StreamRecord{
			User: a.User, Tag: a.Tag, Resource: a.Resource,
			Client: "bench", Seq: uint64(i + 1),
		})
		if err != nil {
			fatal(err)
		}
		if status != cubelsi.OfferAccepted {
			fatal(fmt.Errorf("stream benchmark: record %d not accepted: %v", i, status))
		}
	}
	offerMS := float64(time.Since(start).Nanoseconds()) / 1e6

	fmt.Fprintf(os.Stderr, "benchoffline: stream benchmark, synchronous flush\n")
	start = time.Now()
	if err := ing.Flush(ctx); err != nil {
		fatal(err)
	}
	flushMS := float64(time.Since(start).Nanoseconds()) / 1e6
	st := ing.Stats()
	if err := ing.Close(); err != nil {
		fatal(err)
	}

	rep := streamReport{
		DeltaAssignments: len(delta),
		Flushes:          st.Flushes,
		OfferMS:          offerMS,
		FlushToVisibleMS: flushMS,
	}
	if offerMS > 0 {
		rep.IngestPerSec = float64(len(delta)) / (offerMS / 1e3)
	}
	return rep
}

// measureScale encodes a synthetic model with |T| = n in both formats
// and reports the byte counts, shaped the way each writer actually
// ships models: v2 is factor-free (8·n·k₂ embedding + summary stats),
// v1 carries the 8·n² dense matrix plus the full Tucker decomposition
// (factors and core at lastfm-like mode proportions and the paper's
// reduction ratio of 50 — Y⁽¹⁾ alone is |U|×(|U|/50), quadratic in
// users).
func measureScale(n, k2 int) scalePoint {
	tags := make([]string, n)
	for i := range tags {
		tags[i] = "tag" + strconv.Itoa(i)
	}
	assign := make([]int, n)
	// Mode proportions mirror the lastfm crawl (|U| ≈ 1.17·|T|,
	// |R| ≈ 0.86·|T|, Table II) at reduction ratio 50.
	users := (n * 117) / 100
	resources := (n * 86) / 100
	j1 := max(2, users/50)
	j3 := max(2, resources/50)

	m := &codec.Model{
		Lowercase: true,
		Users:     []string{"u0"},
		Tags:      tags,
		Resources: []string{"r0"},
		CoreDims:  [3]int{0, k2, 0},
		// Engine.Save ships the warm-start factors by default, so the
		// tracked size includes them (resources is 1 in this synthetic
		// vocabulary, so size Y3 by the realistic resource count instead
		// — validation only constrains it on Read, and only bytes are
		// measured here).
		Warm:      &tucker.WarmStart{Y2: mat.New(n, k2), Y3: mat.New(resources, j3)},
		Embedding: mat.New(n, k2),
		Assign:    assign,
		K:         1,
		Index:     ir.BuildIndex([]map[int]int{{0: 1}}, 1),
	}
	v2 := encodedSize(func(w io.Writer) error { return codec.Write(w, m) })

	m.Warm = nil // v1 predates the warm section
	m.Decomp = &tucker.Decomposition{
		Core: tensor.NewDense3(j1, k2, j3),
		Y1:   mat.New(users, j1),
		Y2:   mat.New(n, k2),
		Y3:   mat.New(resources, j3),
		Lambda: [3][]float64{
			make([]float64, j1), make([]float64, k2), make([]float64, j3),
		},
	}
	m.Distances = mat.New(n, n)
	v1 := encodedSize(func(w io.Writer) error { return codec.WriteV1(w, m) }) //nolint:staticcheck // v1 writer measured intentionally
	return scalePoint{Tags: n, K2: k2, V1Bytes: v1, V2Bytes: v2, Ratio: ratio(v1, v2)}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func encodedSize(write func(io.Writer) error) int64 {
	var c countWriter
	if err := write(&c); err != nil {
		fatal(err)
	}
	return c.n
}

func toStageMillis(t core.Timings) stageMillis {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return stageMillis{
		Tensor:    ms(t.Tensor),
		Decompose: ms(t.Decompose),
		Embed:     ms(t.Embed),
		Cluster:   ms(t.Cluster),
		Index:     ms(t.Index),
		Total:     ms(t.Total()),
	}
}

func summarize(lat []float64) queryReport {
	if len(lat) == 0 {
		return queryReport{}
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return queryReport{
		Count:  len(sorted),
		MeanUS: sum / float64(len(sorted)),
		P50US:  pct(0.50),
		P95US:  pct(0.95),
		P99US:  pct(0.99),
	}
}

func presetParams(name string) (datagen.Params, error) {
	switch name {
	case "tiny":
		return datagen.Tiny(), nil
	case "delicious":
		return datagen.DeliciousLike(), nil
	case "bibsonomy":
		return datagen.BibsonomyLike(), nil
	case "lastfm":
		return datagen.LastFMLike(), nil
	case "tags10k":
		return datagen.Tags10K(), nil
	case "tags100k":
		return datagen.Tags100K(), nil
	default:
		return datagen.Params{}, fmt.Errorf("unknown preset %q", name)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func clampInt(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchoffline: %v\n", err)
	os.Exit(1)
}
