// Package codec serializes built CubeLSI models so the expensive offline
// pipeline (tensor build, ALS, Theorem-2 embedding, concept
// distillation) and online serving can run in separate processes: an
// offline job builds and Writes a model, a serving process Reads it and
// answers queries immediately.
//
// A model file is a 4-byte magic ("CLSI"), a little-endian format
// version, a section-flag byte, then the model sections in fixed order —
// vocabularies, decomposition statistics and the lifecycle header (model
// version, source-corpus fingerprint, ALS sweep count), the optional
// warm-start factors, the |T|×k₂ Theorem 2 tag embedding E = Λ₂·Y⁽²⁾,
// the concept assignment, the bag-of-concepts index, and the opt-in
// sections the flag byte announces: the int8 and float16 views of the
// embedding (ANN candidate generation only) and, in v5, the compacted
// |U|×K user factors. Every bulk numeric payload starts on an 8-byte
// boundary, so a reader holding the whole file — a memory mapping
// (ReadMapped) or one read buffer (Read) — aliases it in place instead
// of decoding it; float64 values are raw IEEE-754 bits, so a decoded
// model reproduces search rankings bit-for-bit. The file is linear in
// the vocabularies: serving never needs the O(|T|²) distance matrix.
//
// Write emits v5; Read and ReadMapped accept v5 and v4 (v5 without the
// user-factor section) through one parser. The streaming formats v1–v3
// that preceded the aligned layout are rejected with a message naming
// the last commit whose cubelsi binary converts them.
package codec

import (
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/tucker"
)

// Magic identifies a CubeLSI model file.
var Magic = [4]byte{'C', 'L', 'S', 'I'}

// Version is the current format version, written by Write. Read also
// accepts VersionV4.
const Version uint32 = 5

// VersionV4 is the first aligned mappable format — v5 without the
// optional user-factor section.
const VersionV4 uint32 = 4

// lastLegacyCommit is the last commit whose cubelsi binary reads the
// v1–v3 streaming formats (and so converts them to the current one).
const lastLegacyCommit = "fd1f040"

// checkVersion accepts v4 and v5 and explains every other version: a
// streaming-era file names its conversion route, anything else names
// the versions this reader speaks, so a mixed-version fleet diagnoses
// itself from the message.
func checkVersion(v uint32) error {
	switch {
	case v == Version || v == VersionV4:
		return nil
	case v >= 1 && v <= 3:
		return fmt.Errorf("codec: model format v%d is no longer readable; convert it with \"cubelsi -load old.clsi -save new.clsi\" built from commit %s, the last that reads v1–v3", v, lastLegacyCommit)
	default:
		return fmt.Errorf("codec: unsupported model version %d (want %d or %d)", v, Version, VersionV4)
	}
}

// maxLen bounds every decoded length field (strings, slices, matrix
// dimensions). Kept within int32 range so int(v) cannot wrap negative
// on 32-bit builds.
const maxLen = 1<<31 - 1

// initialCap caps the capacity pre-allocated for a decoded slice.
const initialCap = 1 << 16

// capCap returns the initial capacity for a decoded slice of length n.
func capCap(n int) int {
	if n > initialCap {
		return initialCap
	}
	return n
}

// checkedProduct returns the product of dims, reporting false on
// negative entries or if the product exceeds maxLen (which also guards
// against int overflow in the multiplication).
func checkedProduct(dims ...int) (int, bool) {
	prod := 1
	for _, d := range dims {
		if d < 0 {
			return 0, false
		}
		if d > 0 && prod > maxLen/d {
			return 0, false
		}
		prod *= d
	}
	return prod, true
}

// Model is the serializable state of a built CubeLSI engine: everything
// the online query paths (search, related tags, clusters, stats) need,
// and nothing tied to the raw assignment log.
type Model struct {
	// Lowercase records whether the vocabulary was case-folded at build
	// time, so the serving process folds queries the same way.
	Lowercase bool
	// Assignments is |Y| of the cleaned corpus (for stats reporting).
	Assignments int

	// Users, Tags, Resources are the cleaned vocabularies in id order.
	Users, Tags, Resources []string

	// CoreDims and Fit summarize the Tucker decomposition the model was
	// built from (serving statistics).
	CoreDims [3]int
	Fit      float64

	// ModelVersion is the lifecycle counter of the engine snapshot the
	// model was saved from: 1 for a fresh build, incremented by every
	// incremental update.
	ModelVersion uint64
	// Fingerprint identifies the cleaned source corpus the model was
	// built from (SHA-256 over the sorted assignment triples). All-zero
	// when unknown.
	Fingerprint [32]byte
	// Sweeps is the number of ALS sweeps the decomposition ran.
	Sweeps int
	// Warm optionally carries the mode-2/mode-3 factor matrices of the
	// decomposition, so a later incremental rebuild can warm-start ALS
	// from them. nil when absent.
	Warm *tucker.WarmStart

	// Embedding is the |T|×k₂ Theorem 2 tag embedding E = Λ₂·Y⁽²⁾:
	// purified distances are Euclidean distances between its rows.
	// Required by Write.
	Embedding *mat.Matrix
	// Assign maps tag id → concept id; K is the concept count.
	Assign []int
	K      int
	// Index is the bag-of-concepts tf-idf index over the resources.
	Index *ir.Index

	// Quant8 and Quant16 are the optional quantized views of the
	// embedding (written when set). They feed ANN candidate generation
	// only; exact ranking uses Embedding.
	Quant8  *quant.Int8
	Quant16 *quant.Float16

	// UserFactors is the optional compacted user-mode section (v5,
	// written when set): the |U|×K matrix whose row u is user u's
	// ℓ²-normalized affinity over the K distilled concepts, the piece a
	// personalized (WithUser) query biases ranking through. nil when the
	// model was saved without it.
	UserFactors *mat.Matrix

	// Mapped is the live memory mapping this model's numeric payloads
	// alias when it was opened with ReadMapped; nil for models decoded
	// onto the heap. The model (and anything sharing its slices) must not
	// be used after Mapped.Close.
	Mapped *Mapping
}

// Read decodes a model from r and validates its cross-section shape
// invariants. The stream is buffered whole and parsed by the same
// aligned-layout parser ReadMapped runs over a mapping.
func Read(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: read: %w", err)
	}
	return parseAligned(data)
}

// validate checks the invariants that tie the sections together.
func (m *Model) validate() error {
	nTags := len(m.Tags)
	if len(m.Assign) != nTags {
		return fmt.Errorf("codec: %d concept assignments for %d tags", len(m.Assign), nTags)
	}
	for t, c := range m.Assign {
		if c < -1 || c >= m.K {
			return fmt.Errorf("codec: tag %d assigned to concept %d outside [-1,%d)", t, c, m.K)
		}
	}
	if r, _ := m.Embedding.Dims(); r != nTags {
		return fmt.Errorf("codec: embedding has %d rows for %d tags", r, nTags)
	}
	if m.Index.NumTerms() != m.K {
		return fmt.Errorf("codec: index has %d terms for %d concepts", m.Index.NumTerms(), m.K)
	}
	if m.Index.NumDocs() != len(m.Resources) {
		return fmt.Errorf("codec: index has %d docs for %d resources", m.Index.NumDocs(), len(m.Resources))
	}
	if m.Warm != nil {
		if m.Warm.Y2 == nil || m.Warm.Y3 == nil {
			return fmt.Errorf("codec: warm-start section missing a factor matrix")
		}
		if r := m.Warm.Y2.Rows(); r != nTags {
			return fmt.Errorf("codec: warm-start Y2 has %d rows for %d tags", r, nTags)
		}
		if r := m.Warm.Y3.Rows(); r != len(m.Resources) {
			return fmt.Errorf("codec: warm-start Y3 has %d rows for %d resources", r, len(m.Resources))
		}
	}
	if m.Quant8 != nil {
		if err := m.Quant8.Validate(); err != nil {
			return fmt.Errorf("codec: %w", err)
		}
		if _, c := m.Embedding.Dims(); m.Quant8.Rows != nTags || m.Quant8.Cols != c {
			return fmt.Errorf("codec: int8 section is %d×%d for a %d×%d embedding", m.Quant8.Rows, m.Quant8.Cols, nTags, c)
		}
	}
	if m.Quant16 != nil {
		if err := m.Quant16.Validate(); err != nil {
			return fmt.Errorf("codec: %w", err)
		}
		if _, c := m.Embedding.Dims(); m.Quant16.Rows != nTags || m.Quant16.Cols != c {
			return fmt.Errorf("codec: float16 section is %d×%d for a %d×%d embedding", m.Quant16.Rows, m.Quant16.Cols, nTags, c)
		}
	}
	if m.UserFactors != nil {
		if r, c := m.UserFactors.Dims(); r != len(m.Users) || c != m.K {
			return fmt.Errorf("codec: user-factor section is %d×%d for %d users and %d concepts", r, c, len(m.Users), m.K)
		}
	}
	return nil
}
