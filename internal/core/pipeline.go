// Package core orchestrates the paper's primary contribution: the
// CubeLSI offline pipeline of Figure 1 — tensor construction, truncated
// Tucker decomposition by ALS, the Theorem 2 tag embedding, concept
// distillation, and the bag-of-concepts index — plus the online query
// path. Every stage is timed, which Tables V and VI rely on, and every
// stage is cancellable through the build context.
//
// The pipeline is embedding-first: Theorem 2 shows purified tag
// distances are Euclidean distances in the k₂-dimensional embedding
// E = Λ₂·Y⁽²⁾, so the default build clusters the embedding rows directly
// (O(|T|·K·k₂) per k-means sweep) and never materializes the O(|T|²)
// distance matrix D̂. The pre-refactor path — materialize D̂, spectrally
// cluster it — is preserved behind Options.ExactSpectral for parity
// tests and the paper's evaluation tables.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/tagging"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Stage identifies one Figure-1 stage of the offline pipeline, in
// execution order.
type Stage int

const (
	// StageTensor assembles the third-order tensor from the assignments.
	StageTensor Stage = iota
	// StageDecompose runs the truncated Tucker decomposition by ALS.
	StageDecompose
	// StageEmbed derives the Theorem 2 tag embedding E = Λ₂·Y⁽²⁾ (and,
	// under Options.ExactSpectral, materializes the dense distance
	// matrix D̂ the pre-embedding pipeline clustered).
	StageEmbed
	// StageCluster distills concepts: k-means on the embedding rows, or
	// spectral clustering of D̂ under Options.ExactSpectral.
	StageCluster
	// StageIndex builds the bag-of-concepts tf-idf index.
	StageIndex

	// NumStages is the number of pipeline stages.
	NumStages = int(StageIndex) + 1
)

// String returns the stage's short name.
func (s Stage) String() string {
	switch s {
	case StageTensor:
		return "tensor"
	case StageDecompose:
		return "decompose"
	case StageEmbed:
		return "embed"
	case StageCluster:
		return "cluster"
	case StageIndex:
		return "index"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Progress is one build-progress notification. Each stage reports twice:
// once when it starts (Done false, Elapsed zero) and once when it
// finishes (Done true, Elapsed the stage's wall-clock duration).
type Progress struct {
	Stage   Stage
	Done    bool
	Elapsed time.Duration
}

// ProgressFunc receives build-progress notifications. It is called
// synchronously from the build goroutine and must not block.
type ProgressFunc func(Progress)

// Options configures the offline pipeline.
type Options struct {
	// Tucker carries the core dimensions (or use ratios via
	// tucker.FromRatios before filling this in) and the ALS budget.
	Tucker tucker.Options
	// Spectral carries the concept count K (0 = automatic), the
	// clustering seed and, on the exact path, σ and the affinity options.
	Spectral cluster.SpectralOptions
	// ExactSpectral preserves the pre-embedding pipeline: materialize the
	// full |T|×|T| Theorem 2 distance matrix and spectrally cluster it
	// (Ng–Jordan–Weiss, Section V). The default embedding path runs
	// k-means directly on the embedding rows instead — same geometry by
	// Theorem 2, O(|T|·K·k₂) per sweep instead of O(|T|²) + an
	// eigendecomposition.
	ExactSpectral bool
	// Progress, if non-nil, observes each stage's start and finish.
	Progress ProgressFunc
}

// Timings records wall-clock durations of the offline stages.
type Timings struct {
	Tensor    time.Duration // tensor assembly from assignments
	Decompose time.Duration // Tucker/ALS decomposition
	Embed     time.Duration // Theorem 2 embedding (and D̂ when exact)
	Cluster   time.Duration // concept distillation
	Index     time.Duration // bag-of-concepts tf-idf index
}

// Offline is Tensor+Decompose+Embed — the pre-processing cost compared
// against CubeSim in Table V.
func (t Timings) Offline() time.Duration { return t.Tensor + t.Decompose + t.Embed }

// Total is the full offline pipeline duration.
func (t Timings) Total() time.Duration {
	return t.Tensor + t.Decompose + t.Embed + t.Cluster + t.Index
}

// set records the duration of one stage.
func (t *Timings) set(s Stage, d time.Duration) {
	switch s {
	case StageTensor:
		t.Tensor = d
	case StageDecompose:
		t.Decompose = d
	case StageEmbed:
		t.Embed = d
	case StageCluster:
		t.Cluster = d
	case StageIndex:
		t.Index = d
	}
}

// Pipeline is a built CubeLSI model over one cleaned dataset.
type Pipeline struct {
	DS            *tagging.Dataset
	Tensor        *tensor.Sparse3
	Decomposition *tucker.Decomposition
	// Cube holds the Theorem 1/2 distance structures; populated only
	// under Options.ExactSpectral.
	Cube *distance.CubeLSI
	// Embedding is the Theorem 2 tag embedding E = Λ₂·Y⁽²⁾; every
	// distance the model serves is a Euclidean distance in it.
	Embedding *embed.TagEmbedding
	// Distances is the materialized |T|×|T| matrix D̂. It is populated
	// only under Options.ExactSpectral; use DistanceMatrix for a lazy
	// view that works on either path.
	Distances *mat.Matrix
	// Assign maps tag id → concept id; K is the concept count.
	Assign []int
	K      int
	Index  *ir.Index
	Times  Timings

	distOnce sync.Once
}

// DistanceMatrix returns the dense distance matrix D̂, materializing it
// from the embedding on first use (cached; safe for concurrent callers).
// Serving paths should prefer Embedding — this view exists for the
// evaluation tables and other consumers that genuinely need all pairs.
func (p *Pipeline) DistanceMatrix() *mat.Matrix {
	p.distOnce.Do(func() {
		if p.Distances == nil {
			p.Distances = p.Embedding.Pairwise()
		}
	})
	return p.Distances
}

// Build runs the offline pipeline on an already-cleaned dataset. The
// context is threaded through the long-running stages (ALS mode updates,
// distance rows on the exact path), so cancelling it aborts the build
// promptly and returns the context's error; opts.Progress observes each
// stage.
func Build(ctx context.Context, ds *tagging.Dataset, opts Options) (*Pipeline, error) {
	p := &Pipeline{DS: ds}
	run := stageRunner(ctx, opts.Progress, &p.Times)

	if err := run(StageTensor, func() error {
		p.Tensor = ds.Tensor()
		return nil
	}); err != nil {
		return nil, err
	}

	if err := run(StageDecompose, func() error {
		d, err := tucker.DecomposeContext(ctx, p.Tensor, opts.Tucker)
		if err != nil {
			return err
		}
		p.Decomposition = d
		return nil
	}); err != nil {
		return nil, err
	}

	if err := run(StageEmbed, func() error {
		p.Embedding = embed.FromDecomposition(p.Decomposition)
		if opts.ExactSpectral {
			// The Theorem 1/2 structures (Σ = S₍₂₎S₍₂₎ᵀ) are only needed
			// to materialize D̂; the embedding path never pays for them.
			p.Cube = distance.NewCubeLSI(p.Decomposition)
			d, err := p.Cube.PairwiseContext(ctx)
			if err != nil {
				return err
			}
			p.Distances = d
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := run(StageCluster, func() error {
		var res *cluster.SpectralResult
		if opts.ExactSpectral {
			res = cluster.Spectral(p.Distances, opts.Spectral)
		} else {
			res = cluster.ConceptKMeans(p.Embedding.Matrix(), p.Decomposition.Lambda[1], opts.Spectral)
		}
		p.Assign = res.Assign
		p.K = res.K
		return nil
	}); err != nil {
		return nil, err
	}

	if err := run(StageIndex, func() error {
		p.Index = buildConceptIndex(ds, p.Assign, p.K)
		return nil
	}); err != nil {
		return nil, err
	}

	return p, nil
}

// buildConceptIndex builds the bag-of-concepts tf-idf index over the
// dataset's resources for a given concept partition.
func buildConceptIndex(ds *tagging.Dataset, assign []int, k int) *ir.Index {
	docs := make([]map[int]int, ds.Resources.Len())
	for r, tagCounts := range ds.ResourceTags() {
		docs[r] = ir.MapToConcepts(tagCounts, assign)
	}
	return ir.BuildIndex(docs, k)
}

// stageRunner returns the per-stage execution wrapper shared by Build
// and Update: context check, progress notifications, and wall-clock
// accounting into times.
func stageRunner(ctx context.Context, progress ProgressFunc, times *Timings) func(Stage, func() error) error {
	return func(stage Stage, f func() error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if progress != nil {
			progress(Progress{Stage: stage})
		}
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		times.set(stage, elapsed)
		if progress != nil {
			progress(Progress{Stage: stage, Done: true, Elapsed: elapsed})
		}
		return nil
	}
}

// Query answers a tag query by mapping the tags to concepts and ranking
// resources by cosine similarity, returning up to topN results.
func (p *Pipeline) Query(tags []string, topN int) []ir.Scored {
	counts := make(map[int]int)
	for _, name := range tags {
		if id, ok := p.DS.Tags.Lookup(name); ok {
			counts[id]++
		}
	}
	return p.Index.Query(ir.MapToConcepts(counts, p.Assign), topN)
}
