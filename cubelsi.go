package cubelsi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/retrieve"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// Assignment is one tagging event: user annotated resource with tag.
type Assignment struct {
	User, Tag, Resource string
}

// Config controls the offline pipeline.
type Config struct {
	// ReductionRatios are the paper's c₁, c₂, c₃ (Definition 2): each
	// tensor dimension Iₙ is compressed to a core dimension
	// Jₙ = Iₙ/cₙ. The paper's experiments use 50. Values below 1 are
	// invalid.
	ReductionRatios [3]float64

	// CoreDims, if any entry is nonzero, overrides the corresponding
	// ratio with an absolute core dimension.
	CoreDims [3]int

	// Concepts is the number of concepts distilled by spectral
	// clustering. Zero selects it automatically by the paper's
	// 95%-eigenvalue-mass rule.
	Concepts int

	// Sigma is the spectral-clustering affinity bandwidth (Section V).
	// Zero means self-tuned (median pairwise distance).
	Sigma float64

	// MinSupport, DropSystemTags and Lowercase configure the cleaning
	// pass of Section VI-A.
	MinSupport     int
	DropSystemTags bool
	Lowercase      bool

	// MaxSweeps bounds the ALS sweeps. Zero means the tucker default.
	MaxSweeps int

	// Seed makes the whole pipeline deterministic.
	Seed int64
}

// DefaultConfig mirrors the paper's experimental settings: reduction
// ratios of 50, min-support-5 cleaning, automatic concept count.
func DefaultConfig() Config {
	return Config{
		ReductionRatios: [3]float64{50, 50, 50},
		MinSupport:      5,
		DropSystemTags:  true,
		Lowercase:       true,
	}
}

// Result is one ranked search hit.
type Result struct {
	Resource string  `json:"resource"`
	Score    float64 `json:"score"`
}

// RelatedTag pairs a tag name with its purified distance from a probe tag.
type RelatedTag struct {
	Tag      string  `json:"tag"`
	Distance float64 `json:"distance"`
}

// Stats describes the corpus the engine was built on.
type Stats struct {
	Users, Tags, Resources, Assignments int
	// CoreDims are the Tucker core dimensions actually used.
	CoreDims [3]int
	// Concepts is the number of distilled concepts.
	Concepts int
	// Fit is the fraction of the tensor norm the decomposition captured.
	Fit float64
	// Sweeps is the number of ALS sweeps the decomposition ran — the
	// headline number warm-started updates improve.
	Sweeps int
	// EmbeddingDim is k₂, the dimensionality of the Theorem 2 tag
	// embedding the engine serves distances from.
	EmbeddingDim int
}

// Engine is an immutable search engine over one corpus: a versioned
// snapshot either freshly built (Build), published by an Index
// (NewIndex / Index.Apply), or deserialized from a saved model (Load).
// It is safe for concurrent queries and is never mutated after
// construction — an Index swaps whole snapshots instead.
type Engine struct {
	lowercase bool

	// version is the lifecycle counter of this snapshot (1 for a fresh
	// build, +1 per Index.Apply); fingerprint identifies the cleaned
	// source corpus; warm carries the ALS factor matrices future
	// incremental rebuilds warm-start from (nil on engines restored from
	// models saved WithoutWarmFactors).
	version     uint64
	fingerprint [32]byte
	warm        *tucker.WarmStart

	users     []string
	tags      *tagging.Interner
	resources *tagging.Interner

	// emb is the Theorem 2 tag embedding; all tag-distance serving goes
	// through it.
	emb    *embed.TagEmbedding
	assign []int
	k      int
	index  *ir.Index

	// ann is the optional IVF index over emb (WithANN); annProbe and
	// annRerank are its configured query defaults.
	ann       *embed.IVF
	annProbe  int
	annRerank int

	// quant8 / quant16 are the quantized embedding views a loaded model
	// carried (at most one is used: int8 wins when both are present).
	// They feed ANN candidate generation and lossless re-saves only.
	quant8  *quant.Int8
	quant16 *quant.Float16

	// mapped owns the model-file memory mapping of an engine opened with
	// LoadFile(…, WithMapped()); nil for heap-decoded engines.
	mapped *codec.Mapping

	// userFactors is the compacted user-mode view of the Tucker Y⁽¹⁾
	// factor: row u is user u's ℓ²-normalized affinity over the K
	// distilled concepts (see compactUserFactors). Present on freshly
	// built engines and models saved with WithUserFactors; nil
	// otherwise, in which case WithUser queries serve the shared
	// ranking. userlk lazily indexes users by name for WithUser lookups
	// and is shared across derived snapshots.
	userFactors *mat.Matrix
	userlk      *userLookup

	// retr is the retrieval pipeline configured by WithRetrieval; nil
	// means retrieve.Default(), the exact source at full depth.
	retr *retrieve.Pipeline

	stats   Stats
	timings core.Timings
}

// Stats returns corpus and model statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Version returns the engine's lifecycle counter: 1 for a fresh build,
// incremented by every Index.Apply, and preserved across Save/Load.
func (e *Engine) Version() uint64 { return e.version }

// SourceFingerprint returns the hex SHA-256 fingerprint of the cleaned
// source corpus the engine was built from, or "" when unknown. Two
// engines with equal fingerprints were built from identical cleaned
// assignment sets.
func (e *Engine) SourceFingerprint() string {
	if e.fingerprint == ([32]byte{}) {
		return ""
	}
	return fmt.Sprintf("%x", e.fingerprint)
}

// Timings returns the wall-clock stage durations of the offline build.
// Engines restored by Load report zero timings: they never ran the
// pipeline.
func (e *Engine) Timings() core.Timings { return e.timings }

// HasTag reports whether the cleaned vocabulary contains the tag.
func (e *Engine) HasTag(tag string) bool {
	_, err := e.tagID(tag)
	return err == nil
}

// Tags returns the cleaned tag vocabulary.
func (e *Engine) Tags() []string {
	out := make([]string, e.tags.Len())
	copy(out, e.tags.Names())
	return out
}

// Distance returns the purified semantic distance D̂ between two tags —
// by Theorem 2, the Euclidean distance between their embedding rows. It
// errors if either tag is unknown.
func (e *Engine) Distance(tag1, tag2 string) (float64, error) {
	i, err := e.tagID(tag1)
	if err != nil {
		return 0, err
	}
	j, err := e.tagID(tag2)
	if err != nil {
		return 0, err
	}
	if i == j {
		return 0, nil
	}
	return e.emb.Dist(i, j), nil
}

// RelatedTags returns the n tags semantically closest to tag, nearest
// first. Membership in the top-n is decided by (distance, tag id), and
// the returned list is then ordered by (distance, tag name) for display.
// n ≤ 0 and n > |T|−1 both mean every other tag. The lookup is a blocked
// parallel top-k selection over the embedding rows — O(|T|·k₂) work and
// O(n) memory, never a scan of a dense matrix row — unless the engine
// was derived with WithANN, in which case only the configured number of
// IVF lists is probed (sublinear in |T|, with recall governed by the
// nprobe/rerank knobs).
func (e *Engine) RelatedTags(tag string, n int) ([]RelatedTag, error) {
	return e.relatedTags(tag, n, e.annProbe)
}

func (e *Engine) relatedTags(tag string, n, nprobe int) ([]RelatedTag, error) {
	id, err := e.tagID(tag)
	if err != nil {
		return nil, err
	}
	if total := e.tags.Len() - 1; n <= 0 || n > total {
		n = total
	}
	var nb []embed.Neighbor
	if e.ann != nil {
		nb = e.ann.NearestK(id, n, nprobe, e.annRerank)
	} else {
		nb = e.emb.NearestK(id, n)
	}
	out := make([]RelatedTag, len(nb))
	for i, b := range nb {
		out[i] = RelatedTag{Tag: e.tags.Name(b.Tag), Distance: b.Dist}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Tag < out[b].Tag
	})
	return out, nil
}

// ConceptOf returns the concept id of a tag (hard clustering).
func (e *Engine) ConceptOf(tag string) (int, error) {
	id, err := e.tagID(tag)
	if err != nil {
		return 0, err
	}
	return e.assign[id], nil
}

// Concepts returns the number of distilled concepts.
func (e *Engine) Concepts() int { return e.k }

// Clusters returns the distilled concepts as groups of tag names
// (Table IV-style), indexed by concept id.
func (e *Engine) Clusters() [][]string {
	out := make([][]string, e.k)
	for id, c := range e.assign {
		if c < 0 {
			continue
		}
		out[c] = append(out[c], e.tags.Name(id))
	}
	for _, tags := range out {
		sort.Strings(tags)
	}
	return out
}

func (e *Engine) tagID(tag string) (int, error) {
	if e.lowercase {
		tag = strings.ToLower(tag)
	}
	id, ok := e.tags.Lookup(tag)
	if !ok {
		return 0, fmt.Errorf("cubelsi: unknown tag %q", tag)
	}
	return id, nil
}
