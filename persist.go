package cubelsi

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/codec"
	"repro/internal/embed"
	"repro/internal/quant"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// SaveOption configures Save.
type SaveOption func(*saveSettings)

type saveSettings struct {
	dropWarm    bool
	int8        bool
	float16     bool
	userFactors bool
}

// WithoutWarmFactors omits the warm-start factor section from the
// saved model: the file shrinks by roughly 8·(|T|·k₂ + |R|·j₃) bytes —
// about half of a default lifecycle model — but the saved model can no
// longer seed NewIndex(..., WithPreviousModel(...)) warm starts. Use it
// for serving-only deployments that will never rebuild incrementally.
func WithoutWarmFactors() SaveOption {
	return func(s *saveSettings) { s.dropWarm = true }
}

// WithInt8Embedding adds the int8 quantized view of the embedding to
// the saved model (format v4): one code byte per element plus a
// per-dimension (scale, zero-point) pair — an eighth of the float64
// section. A loaded engine feeds it to ANN candidate generation
// (WithANN); exact rankings still come from the full-precision rows,
// which remain in the file. Engines loaded from a model that already
// carries int8 codes re-save them bit-identically.
func WithInt8Embedding() SaveOption {
	return func(s *saveSettings) { s.int8 = true }
}

// WithFloat16Embedding adds the IEEE-754 half-precision view of the
// embedding to the saved model (format v4): a quarter of the float64
// section, ~3 decimal digits of precision. Like WithInt8Embedding it
// feeds ANN candidate generation only.
func WithFloat16Embedding() SaveOption {
	return func(s *saveSettings) { s.float16 = true }
}

// WithUserFactors adds the compacted user-mode factors to the saved
// model (format v5): the |U|×K concept-affinity matrix WithUser queries
// personalize through, 8·|U|·K bytes in the same aligned mappable
// layout as every other numeric section. Without this option the
// section is omitted — user factors are opt-in serving state, and
// models saved without them answer WithUser queries with the shared
// ranking, bit-identically to an unpersonalized query. Saving an engine
// that carries no user factors (loaded from a model saved without them)
// with this option is an error rather than a silently unpersonalized
// file.
func WithUserFactors() SaveOption {
	return func(s *saveSettings) { s.userFactors = true }
}

// Save serializes the engine's model — vocabularies, the |T|×k₂ tag
// embedding, decomposition statistics, concept assignment, and index —
// so a separate serving process can Load it and answer queries with
// bit-identical rankings, without re-running the offline pipeline.
// Models are written in format v5: the aligned mappable layout, linear
// in the vocabularies, carrying the lifecycle header and, when the
// engine has them, the mode-2/mode-3 warm-start factors (drop them with
// WithoutWarmFactors), plus the opt-in sections — quantized embedding
// views (WithInt8Embedding / WithFloat16Embedding) and the compacted
// user-mode factors (WithUserFactors). Loading an older model and
// saving it again upgrades the file in place; v1–v4 files remain
// readable.
func (e *Engine) Save(w io.Writer, opts ...SaveOption) error {
	if e.emb == nil {
		return errors.New("cubelsi: model carries no tag embedding (legacy v1 file without a decomposition); rebuild it to save in the current format")
	}
	var settings saveSettings
	for _, o := range opts {
		o(&settings)
	}
	warm := e.warm
	if settings.dropWarm {
		warm = nil
	}
	version := e.version
	if version == 0 {
		version = 1
	}
	m := &codec.Model{
		Lowercase:    e.lowercase,
		Assignments:  e.stats.Assignments,
		Users:        e.users,
		Tags:         e.tags.Names(),
		Resources:    e.resources.Names(),
		CoreDims:     e.stats.CoreDims,
		Fit:          e.stats.Fit,
		ModelVersion: version,
		Fingerprint:  e.fingerprint,
		Sweeps:       e.stats.Sweeps,
		Warm:         warm,
		Embedding:    e.emb.Matrix(),
		Assign:       e.assign,
		K:            e.k,
		Index:        e.index,
	}
	// Quantized sections: reuse codes the engine already carries (so a
	// load→save cycle is lossless even though quantization itself is
	// lossy), quantize fresh otherwise.
	if settings.int8 {
		if m.Quant8 = e.quant8; m.Quant8 == nil {
			m.Quant8 = quant.QuantizeInt8(e.emb.Matrix())
		}
	}
	if settings.float16 {
		if m.Quant16 = e.quant16; m.Quant16 == nil {
			m.Quant16 = quant.QuantizeFloat16(e.emb.Matrix())
		}
	}
	if settings.userFactors {
		if e.userFactors == nil {
			return errors.New("cubelsi: WithUserFactors: engine carries no user factors (loaded from a model saved without them); rebuild from the corpus to save a personalized model")
		}
		m.UserFactors = e.userFactors
	}
	return codec.Write(w, m)
}

// SaveFile writes the model to path.
func (e *Engine) SaveFile(path string, opts ...SaveOption) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cubelsi: %w", err)
	}
	defer f.Close()
	if err := e.Save(f, opts...); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cubelsi: %w", err)
	}
	return nil
}

// Load restores an engine from a model stream written by Save.
func Load(r io.Reader) (*Engine, error) {
	m, err := codec.Read(r)
	if err != nil {
		return nil, fmt.Errorf("cubelsi: %w", err)
	}
	return engineFromModel(m, false)
}

// engineFromModel builds the serving engine around a decoded model.
// lazyVocab defers building the name→id maps to the first lookup — the
// mapped fast path, where map construction would dominate an otherwise
// millisecond open — at the cost of not rejecting duplicate names (the
// first id wins instead; streaming loads keep the checked constructor).
func engineFromModel(m *codec.Model, lazyVocab bool) (*Engine, error) {
	var tags, resources *tagging.Interner
	if lazyVocab {
		tags = tagging.NewInternerFromNamesUnchecked(m.Tags)
		resources = tagging.NewInternerFromNamesUnchecked(m.Resources)
	} else {
		var err error
		tags, err = tagging.NewInternerFromNames(m.Tags)
		if err != nil {
			return nil, fmt.Errorf("cubelsi: tag vocabulary: %w", err)
		}
		resources, err = tagging.NewInternerFromNames(m.Resources)
		if err != nil {
			return nil, fmt.Errorf("cubelsi: resource vocabulary: %w", err)
		}
	}
	st := Stats{
		Users:       len(m.Users),
		Tags:        len(m.Tags),
		Resources:   len(m.Resources),
		Assignments: m.Assignments,
		Concepts:    m.K,
		CoreDims:    m.CoreDims,
		Fit:         m.Fit,
		Sweeps:      m.Sweeps,
	}

	// Tag semantics, newest representation first: a v2+ embedding as
	// stored; a v1 file with a decomposition has its embedding derived
	// (the in-place upgrade path); a v1 file without one falls back to
	// serving from the dense matrix it shipped.
	var emb *embed.TagEmbedding
	var distances = m.Distances
	switch {
	case m.Embedding != nil:
		emb = embed.FromMatrix(m.Embedding)
	case m.Decomp != nil:
		emb = embed.FromDecomposition(m.Decomp)
		distances = nil
	}
	if emb != nil {
		st.EmbeddingDim = emb.Dim()
	}

	// Lifecycle: pre-v3 files carry no version (normalize to 1) and no
	// warm factors — except v1 files shipping a full decomposition,
	// whose factors warm-start as well as freshly built ones.
	version := m.ModelVersion
	if version == 0 {
		version = 1
	}
	warm := m.Warm
	if warm == nil && m.Decomp != nil {
		warm = &tucker.WarmStart{Y2: m.Decomp.Y2, Y3: m.Decomp.Y3}
	}

	return &Engine{
		lowercase:   m.Lowercase,
		version:     version,
		fingerprint: m.Fingerprint,
		warm:        warm,
		users:       m.Users,
		tags:        tags,
		resources:   resources,
		emb:         emb,
		distances:   distances,
		assign:      m.Assign,
		k:           m.K,
		index:       m.Index,
		userFactors: m.UserFactors,
		userlk:      &userLookup{},
		quant8:      m.Quant8,
		quant16:     m.Quant16,
		mapped:      m.Mapped,
		stats:       st,
	}, nil
}

// LoadOption configures LoadFile.
type LoadOption func(*loadSettings)

type loadSettings struct{ mapped bool }

// WithMapped makes LoadFile memory-map the model file instead of
// decoding it onto the heap: a v4+ model opens in milliseconds at any
// size, its numeric sections alias the mapping (page cache shared
// across replicas), and the engine's Close releases the mapping — the
// caller owns calling it when the engine is retired; a finalizer
// reclaims mappings of collected engines. Files in older formats are
// decoded onto the heap as usual.
func WithMapped() LoadOption {
	return func(s *loadSettings) { s.mapped = true }
}

// LoadFile restores an engine from a model file written by SaveFile.
func LoadFile(path string, opts ...LoadOption) (*Engine, error) {
	var settings loadSettings
	for _, o := range opts {
		o(&settings)
	}
	if settings.mapped {
		m, err := codec.ReadMapped(path)
		if err != nil {
			return nil, fmt.Errorf("cubelsi: %w", err)
		}
		eng, err := engineFromModel(m, m.Mapped != nil)
		if err != nil {
			m.Mapped.Close()
			return nil, err
		}
		return eng, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cubelsi: %w", err)
	}
	defer f.Close()
	return Load(f)
}
