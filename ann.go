package cubelsi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/embed"
)

// WithANN returns a derived engine whose RelatedTags lookups go through
// an IVF approximate-nearest-neighbor index instead of the exact
// O(|T|·k₂) scan. The coarse quantizer is the engine's own concept
// partition — the k-means centroids the offline pipeline already
// computed — so building the index costs one assignment pass, no
// training. nprobe is the number of inverted lists probed per query
// (0 picks √lists, the classic balance point); rerank is the candidate
// depth kept by the approximate stage before the exact rerank (0 keeps
// just n; embed.ExactRerank keeps everything, which at full probing is
// bit-identical to the exact scan — the parity tests' configuration).
// When the engine carries a quantized embedding view (a model saved
// with WithInt8Embedding or WithFloat16Embedding), candidates are
// scored against it and survivors are always rescored against the
// full-precision rows, so quantization never changes how survivors
// rank. The receiver is not mutated: like every Engine, the returned
// snapshot is immutable and safe for concurrent queries.
func (e *Engine) WithANN(nprobe, rerank int) (*Engine, error) {
	if nprobe < 0 {
		return nil, fmt.Errorf("%w: WithANN(%d, %d): nprobe must be ≥ 0", ErrInvalidOptions, nprobe, rerank)
	}
	if rerank < 0 {
		return nil, fmt.Errorf("%w: WithANN(%d, %d): rerank must be ≥ 0", ErrInvalidOptions, nprobe, rerank)
	}
	if e.k < 1 {
		return nil, fmt.Errorf("cubelsi: WithANN requires at least one concept to use as a coarse quantizer")
	}
	centers, _ := cluster.Centroids(e.emb.Matrix(), e.assign, e.k, nil)
	ivf, err := embed.NewIVF(e.emb, centers)
	if err != nil {
		return nil, fmt.Errorf("cubelsi: %w", err)
	}
	if e.quant8 != nil {
		ivf = ivf.WithScorer(e.quant8)
	} else if e.quant16 != nil {
		ivf = ivf.WithScorer(e.quant16)
	}
	derived := *e
	derived.ann = ivf
	derived.annProbe = nprobe
	derived.annRerank = rerank
	return &derived, nil
}

// ANNEnabled reports whether RelatedTags serves through the IVF index.
func (e *Engine) ANNEnabled() bool { return e.ann != nil }

// ANNProbe returns the effective nprobe ANN queries use (the WithANN
// value, or the √lists default it resolved to). Zero when ANN is off.
func (e *Engine) ANNProbe() int {
	if e.ann == nil {
		return 0
	}
	if e.annProbe <= 0 {
		return e.ann.DefaultProbe()
	}
	return e.annProbe
}

// ANNLists returns the number of IVF inverted lists (the concept
// count), the upper bound an nprobe is clamped to. Zero when ANN is off.
func (e *Engine) ANNLists() int {
	if e.ann == nil {
		return 0
	}
	return e.ann.Lists()
}

// Quantization names the quantized embedding view the engine carries —
// "int8", "float16", or "none". Quantized views feed ANN candidate
// generation only; exact rankings always come from the float64 rows.
func (e *Engine) Quantization() string {
	switch {
	case e.quant8 != nil:
		return "int8"
	case e.quant16 != nil:
		return "float16"
	}
	return "none"
}

// Mapped reports whether the engine serves from a memory-mapped model
// file (LoadFile with WithMapped) rather than heap-decoded sections.
func (e *Engine) Mapped() bool { return e.mapped.Mapped() }

// Close releases the model file mapping of a memory-mapped engine; the
// engine (and every derived snapshot sharing its mapping) must not be
// used afterwards. It is a no-op for heap-backed engines and is
// idempotent.
func (e *Engine) Close() error { return e.mapped.Close() }

// RelatedTagsProbe is RelatedTags with a per-request nprobe override:
// nprobe inverted lists are probed instead of the engine's configured
// default (0 keeps the default; values above the list count clamp).
// On engines without ANN the override is ignored and the exact scan
// answers.
func (e *Engine) RelatedTagsProbe(tag string, n, nprobe int) ([]RelatedTag, error) {
	if e.ann == nil {
		return e.RelatedTags(tag, n)
	}
	if nprobe <= 0 {
		nprobe = e.annProbe
	}
	return e.relatedTags(tag, n, nprobe)
}
