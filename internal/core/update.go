package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// PrevState is the prior model state an incremental Update warm-starts
// from: the factor matrices that seed the ALS sweep, the embedding and
// concept partition that bound how much re-clustering the delta forces,
// and the vocabularies that align all of it to the new id spaces (ids
// are reassigned on every clean; names are the stable keys).
type PrevState struct {
	// TagNames and ResourceNames are the previous cleaned vocabularies in
	// id order; row r of Warm.Y2 (resp. Y3) belongs to TagNames[r]
	// (resp. ResourceNames[r]).
	TagNames, ResourceNames []string
	// Warm carries the previous mode-2/mode-3 factor matrices. Required.
	Warm *tucker.WarmStart
	// Embedding is the previous Theorem 2 tag embedding, rows aligned to
	// TagNames. Required.
	Embedding *embed.TagEmbedding
	// Assign maps previous tag id → concept id; K is the previous concept
	// count. Required (K ≥ 1).
	Assign []int
	K      int
}

// UpdateOptions tunes the incremental pass of Update.
type UpdateOptions struct {
	// MoveThreshold is the relative row displacement beyond which a tag
	// counts as moved and is re-clustered: moved when
	// ‖E'ₜ − Eₜ‖ > MoveThreshold · max(‖Eₜ‖, ε). Zero means 0.02;
	// negative re-clusters everything.
	MoveThreshold float64
	// MaxMovedFraction bounds the incremental re-clustering: when more
	// than this fraction of tags moved (the delta was not small), Update
	// falls back to a full k-means pass. Zero means 0.25.
	MaxMovedFraction float64
}

func (o UpdateOptions) moveThreshold() float64 {
	if o.MoveThreshold == 0 {
		return 0.02
	}
	return o.MoveThreshold
}

func (o UpdateOptions) maxMovedFraction() float64 {
	if o.MaxMovedFraction == 0 {
		return 0.25
	}
	return o.MaxMovedFraction
}

// UpdateStats reports what the incremental pass actually did.
type UpdateStats struct {
	// Sweeps is the number of ALS sweeps the warm-started decomposition
	// ran; Fit is the fit it reached.
	Sweeps int
	Fit    float64
	// NewTags is the number of tags absent from the previous vocabulary;
	// MovedTags counts tags (including new ones) whose embedding row
	// moved beyond the threshold; ReclusteredTags is how many tags were
	// re-assigned a concept (= MovedTags on the incremental path, |T| on
	// a full fallback).
	NewTags, MovedTags, ReclusteredTags int
	// FullRecluster reports that the incremental path fell back to a full
	// k-means pass (too many moved tags, a lost concept, or a concept
	// count change).
	FullRecluster bool
}

// Update is the incremental counterpart of Build: it re-runs the offline
// pipeline over an updated dataset, warm-starting the ALS sweep from the
// previous factor matrices (no HOSVD initialisation; the sweeps
// themselves still run to the MaxSweeps cap on the benchmark corpora,
// see tucker.WarmStart and ROADMAP item 3), and
// re-clustering only the tags whose embedding rows moved beyond a
// threshold — every other tag keeps its previous concept id, so concept
// labels are stable across updates. The tensor itself is rebuilt from
// the updated assignments (it is linear in |Y| and never the
// bottleneck).
//
// Update is an accelerator, not an approximation: the decomposition
// converges to the ALS fixed point of the current tensor, and on small
// deltas the partition equals what a full rebuild produces.
func Update(ctx context.Context, ds *tagging.Dataset, prev *PrevState, opts Options, uopts UpdateOptions) (*Pipeline, *UpdateStats, error) {
	if prev == nil || prev.Warm == nil || prev.Warm.Y2 == nil || prev.Warm.Y3 == nil ||
		prev.Embedding == nil || prev.K < 1 || len(prev.Assign) != len(prev.TagNames) {
		return nil, nil, fmt.Errorf("core: update: incomplete previous state")
	}
	p := &Pipeline{DS: ds}
	st := &UpdateStats{}
	run := stageRunner(ctx, opts.Progress, &p.Times)
	tOpts := opts.Tucker

	if err := run(StageTensor, func() error {
		p.Tensor = ds.Tensor()
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Align the previous factor rows to the new id spaces by name — ids
	// are reassigned on every clean, names are stable. Tags or resources
	// the previous build never saw start as zero rows; shape mismatches
	// (grown vocabularies, changed core ranks) are adapted inside the
	// decomposition.
	prevTag := indexByName(prev.TagNames)
	prevRes := indexByName(prev.ResourceNames)
	tOpts.WarmStart = &tucker.WarmStart{
		Y2: alignRows(prev.Warm.Y2, ds.Tags.Names(), prevTag),
		Y3: alignRows(prev.Warm.Y3, ds.Resources.Names(), prevRes),
	}
	if err := run(StageDecompose, func() error {
		d, err := tucker.DecomposeContext(ctx, p.Tensor, tOpts)
		if err != nil {
			return err
		}
		p.Decomposition = d
		return nil
	}); err != nil {
		return nil, nil, err
	}
	st.Sweeps = p.Decomposition.Sweeps
	st.Fit = p.Decomposition.Fit

	// New embedding, then per-tag displacement against the previous one.
	var moved []int
	var prevOf []int // new tag id → previous tag id, -1 when unseen
	if err := run(StageEmbed, func() error {
		p.Embedding = embed.FromDecomposition(p.Decomposition)
		thr := uopts.moveThreshold()
		n := p.Embedding.NumTags()

		// Factor matrices are defined only up to sign flips and rotations
		// within near-degenerate singular subspaces, so rows of successive
		// embeddings are not directly comparable: rotate the new embedding
		// into the previous frame (orthogonal Procrustes over the shared
		// tags) before measuring displacement.
		var pairs []embed.RowPair
		prevOf = make([]int, n)
		for i := range n {
			pi, known := prevTag[ds.Tags.Name(i)]
			if !known {
				prevOf[i] = -1
				continue
			}
			prevOf[i] = pi
			pairs = append(pairs, embed.RowPair{A: i, B: pi})
		}
		aligned := p.Embedding.AlignTo(prev.Embedding, pairs)

		for i := range n {
			if prevOf[i] < 0 {
				st.NewTags++
				moved = append(moved, i)
				continue
			}
			d := embed.CrossDist(aligned, i, prev.Embedding, prevOf[i])
			scale := prev.Embedding.RowNorm(prevOf[i])
			if scale < 1e-12 {
				scale = 1e-12
			}
			if thr < 0 || d > thr*scale {
				moved = append(moved, i)
			}
		}
		st.MovedTags = len(moved)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	if err := run(StageCluster, func() error {
		n := p.Embedding.NumTags()
		k := opts.Spectral.K
		if k <= 0 {
			// Auto-K stays pinned to the previous concept count: concept
			// ids are serving-visible, so an update never re-numbers them
			// underneath a client unless forced to re-cluster fully.
			k = prev.K
		}
		if k > n {
			k = n
		}
		full := k != prev.K || float64(len(moved)) > uopts.maxMovedFraction()*float64(n)

		// Carry every previously-known tag's label into the new id space;
		// those labels both seed the centroid estimate and survive as-is
		// for the unmoved tags. Only brand-new tags contribute nothing to
		// the centroids.
		assign := make([]int, n)
		unknown := make([]bool, n)
		for i := 0; i < n && !full; i++ {
			if prevOf[i] < 0 {
				unknown[i] = true
				continue
			}
			c := prev.Assign[prevOf[i]]
			if c < 0 || c >= k {
				full = true
				break
			}
			assign[i] = c
		}
		if !full && len(moved) > 0 {
			centers, ok := cluster.Centroids(p.Embedding.Matrix(), assign, k, unknown)
			if !ok {
				// A concept lost every member; its centroid is meaningless,
				// so re-cluster from scratch.
				full = true
			} else {
				cluster.AssignNearest(p.Embedding.Matrix(), centers, moved, assign)
			}
		}
		if full {
			res := cluster.ConceptKMeans(p.Embedding.Matrix(), p.Decomposition.Lambda[1], opts.Spectral)
			p.Assign, p.K = res.Assign, res.K
			st.FullRecluster = true
			st.ReclusteredTags = n
		} else {
			p.Assign, p.K = assign, k
			st.ReclusteredTags = len(moved)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	if err := run(StageIndex, func() error {
		p.Index = buildConceptIndex(ds, p.Assign, p.K)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	return p, st, nil
}

// indexByName inverts a name list into a name → id map.
func indexByName(names []string) map[string]int {
	out := make(map[string]int, len(names))
	for i, n := range names {
		out[n] = i
	}
	return out
}

// alignRows permutes the rows of a previous factor matrix into the new
// id order given by names: row i of the result is the previous row of
// names[i], or zero when the previous build never saw that name.
func alignRows(src *mat.Matrix, names []string, prevIdx map[string]int) *mat.Matrix {
	out := mat.New(len(names), src.Cols())
	for i, name := range names {
		if pi, ok := prevIdx[name]; ok && pi < src.Rows() {
			copy(out.Row(i), src.Row(pi))
		}
	}
	return out
}
