// Package codec serializes built CubeLSI models so the expensive offline
// pipeline (tensor build, ALS, Theorem-2 distances, spectral
// distillation) and online serving can run in separate processes: an
// offline job builds and Writes a model, a serving process Reads it and
// answers queries immediately.
//
// The format is a versioned little-endian binary stream: a 4-byte magic
// ("CLSI"), a format version, then the model sections in fixed order —
// vocabularies, Tucker decomposition, tag semantics, concept assignment,
// and the bag-of-concepts index. Float64 values are encoded as raw
// IEEE-754 bits, so a decoded model reproduces search rankings
// bit-for-bit.
//
// Format v4 switches to an 8-byte-aligned section layout that a reader
// can decode zero-copy from a memory-mapped file (ReadMapped): numeric
// payloads are aliased in place instead of streamed, so a serving
// replica opens a multi-hundred-megabyte model in milliseconds and
// shares its pages with every other replica on the machine. v4 also
// carries optional quantized views of the embedding — int8 with a
// per-dimension affine (scale, zero-point) pair, and IEEE-754 float16 —
// that feed ANN candidate generation only; exact ranking always uses
// the full-precision rows.
//
// Format v3 adds the model lifecycle header — a monotonically
// increasing model version, a fingerprint of the source corpus, the ALS
// sweep count — and an optional warm-start section carrying the mode-2
// and mode-3 factor matrices, so a later incremental rebuild
// (cubelsi.Index.Apply) can warm-start ALS from the saved factors
// instead of starting cold.
//
// Format v2 stores tag semantics as the |T|×k₂ Theorem 2 embedding
// E = Λ₂·Y⁽²⁾ and carries the decomposition's summary statistics
// (core dimensions, fit) as scalar metadata, so serving models need no
// factor matrices at all: files shrink from quadratic to linear in the
// vocabularies (v1's Y⁽¹⁾ section alone was |U|×(|U|/c₁) — quadratic in
// users at the paper's reduction ratios). Format v1 stored the dense
// |T|×|T| distance matrix D̂ plus the full decomposition. Read still
// accepts v1 and v2 streams (the v1 loader derives the embedding from
// the stored decomposition), and Write always emits the current format —
// so `cubelsi -load old.model -save new.model` upgrades a file in place.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Magic identifies a CubeLSI model stream.
var Magic = [4]byte{'C', 'L', 'S', 'I'}

// Version is the current format version, written by Write. Read accepts
// VersionV4, VersionV3, VersionV2 and VersionV1 streams as well.
const Version uint32 = 5

// VersionV4 is the first aligned mappable format — v5 without the
// optional user-factor section.
const VersionV4 uint32 = 4

// VersionV3 is the last streaming format: v2 plus the lifecycle header
// and the optional warm-start factor section, without the v4 aligned
// layout or quantized embedding sections.
const VersionV3 uint32 = 3

// VersionV2 is the first linear-size format: tag semantics stored as
// the |T|×k₂ embedding, no lifecycle header or warm-start section.
const VersionV2 uint32 = 2

// VersionV1 is the legacy quadratic format: tag semantics stored as the
// dense |T|×|T| distance matrix.
const VersionV1 uint32 = 1

// maxLen bounds every decoded length field (strings, slices, matrix
// dimensions). Decoded slices additionally grow incrementally (capped
// initial capacity), so a corrupt length field fails on stream EOF
// after a bounded allocation instead of triggering a huge make(). Kept
// within int32 range so int(v) cannot wrap negative on 32-bit builds.
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
	// built from (serving statistics). In v2+ they are stored as scalar
	// metadata; reading a v1 stream derives them from its decomposition
	// section.
	CoreDims [3]int
	Fit      float64

	// ModelVersion is the lifecycle counter of the engine snapshot the
	// model was saved from: 1 for a fresh build, incremented by every
	// incremental update. Zero on v1/v2 streams, which predate it.
	ModelVersion uint64
	// Fingerprint identifies the cleaned source corpus the model was
	// built from (SHA-256 over the sorted assignment triples). All-zero
	// when unknown (v1/v2 streams).
	Fingerprint [32]byte
	// Sweeps is the number of ALS sweeps the decomposition ran. Zero on
	// v2 streams; v1 streams recover it from the decomposition section.
	Sweeps int
	// Warm optionally carries the mode-2/mode-3 factor matrices of the
	// decomposition, so a later incremental rebuild can warm-start ALS
	// from them. v3 only; nil when absent.
	Warm *tucker.WarmStart

	// Decomp carries the full Tucker factors, core tensor, singular
	// values, fit and sweep count. Serving models omit it (v2 writes the
	// section empty unless explicitly populated); it survives v1 reads
	// so embeddings can be derived.
	Decomp *tucker.Decomposition
	// Embedding is the |T|×k₂ Theorem 2 tag embedding E = Λ₂·Y⁽²⁾, the
	// v2 representation of tag semantics (purified distances are
	// Euclidean distances between its rows). Required by Write.
	Embedding *mat.Matrix
	// Distances is the dense |T|×|T| distance matrix D̂ of legacy v1
	// streams. Read populates it only for v1 input; Write ignores it
	// (WriteV1 exists for tests).
	Distances *mat.Matrix
	// Assign maps tag id → concept id; K is the concept count.
	Assign []int
	K      int
	// Index is the bag-of-concepts tf-idf index over the resources.
	Index *ir.Index

	// Quant8 and Quant16 are the optional quantized views of the
	// embedding (v4 sections, written when set). They feed ANN candidate
	// generation only; exact ranking uses Embedding.
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

// Write encodes the model to w in the current (v5) format: the aligned
// mappable layout, with the quantized embedding sections included when
// m.Quant8 / m.Quant16 are set and the user-factor section when
// m.UserFactors is set. m.Embedding must be set.
func Write(w io.Writer, m *Model) error {
	if m.Embedding == nil {
		return fmt.Errorf("codec: write: model has no tag embedding (v2+ requires one; see embed.FromDecomposition)")
	}
	return writeAligned(w, m, Version)
}

// WriteV4 encodes the model in the v4 aligned format — v5 without the
// user-factor section, which v4 readers predate. m.UserFactors must be
// nil: silently dropping an explicitly attached section would turn a
// personalized model into an unpersonalized one without a trace.
//
// Deprecated: WriteV4 exists so tests and the fuzz corpus can produce
// v4 streams; new models should always be written with Write.
func WriteV4(w io.Writer, m *Model) error {
	if m.Embedding == nil {
		return fmt.Errorf("codec: write: model has no tag embedding (v2+ requires one; see embed.FromDecomposition)")
	}
	if m.UserFactors != nil {
		return fmt.Errorf("codec: write: the user-factor section requires format v%d (v4 readers cannot decode it); drop UserFactors or use Write", Version)
	}
	return writeAligned(w, m, VersionV4)
}

// WriteV3 encodes the model in the v3 streaming format: the linear-size
// embedding plus the lifecycle header and warm-start factors, without
// the v4 aligned layout or quantized sections.
//
// Deprecated: WriteV3 exists so tests and the fuzz corpus can produce
// v3 streams; new models should always be written with Write.
func WriteV3(w io.Writer, m *Model) error {
	if m.Embedding == nil {
		return fmt.Errorf("codec: write: model has no tag embedding (v2+ requires one; see embed.FromDecomposition)")
	}
	return write(w, m, VersionV3)
}

// WriteV2 encodes the model in the v2 format: the linear-size embedding
// without the lifecycle header or warm-start factors.
//
// Deprecated: WriteV2 exists so tests and the fuzz corpus can produce
// v2 streams; new models should always be written with Write.
func WriteV2(w io.Writer, m *Model) error {
	if m.Embedding == nil {
		return fmt.Errorf("codec: write: model has no tag embedding (v2+ requires one; see embed.FromDecomposition)")
	}
	return write(w, m, VersionV2)
}

// WriteV1 encodes the model in the legacy quadratic v1 format, with tag
// semantics as the dense distance matrix. m.Distances must be set.
//
// Deprecated: WriteV1 exists so tests can produce v1 streams; new
// models should always be written with Write.
func WriteV1(w io.Writer, m *Model) error {
	if m.Distances == nil {
		return fmt.Errorf("codec: write: v1 requires the dense distance matrix")
	}
	return write(w, m, VersionV1)
}

func write(w io.Writer, m *Model, version uint32) error {
	bw := bufio.NewWriter(w)
	e := &encoder{w: bw}

	e.bytes(Magic[:])
	e.u32(version)
	e.bool(m.Lowercase)
	e.length(m.Assignments)

	e.strings(m.Users)
	e.strings(m.Tags)
	e.strings(m.Resources)

	if version != VersionV1 {
		for _, d := range m.CoreDims {
			e.length(d)
		}
		e.f64(m.Fit)
	}
	if version >= VersionV3 {
		e.u64(m.ModelVersion)
		e.bytes(m.Fingerprint[:])
		e.length(m.Sweeps)
	}
	e.decomposition(m.Decomp)
	if version >= VersionV3 {
		e.warmStart(m.Warm)
	}
	if version == VersionV1 {
		e.matrix(m.Distances)
	} else {
		e.matrix(m.Embedding)
	}

	e.length(len(m.Assign))
	for _, c := range m.Assign {
		e.i64(int64(c))
	}
	e.length(m.K)

	e.index(m.Index.Snapshot())

	if e.err != nil {
		return fmt.Errorf("codec: write: %w", e.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("codec: write: %w", err)
	}
	return nil
}

// Read decodes a model from r and validates its cross-section shape
// invariants. v4 and v5 streams are buffered whole and decoded with the
// aligned-layout parser (the same one ReadMapped uses on a mapping);
// v1–v3 streams go through the legacy streaming decoder.
func Read(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(8); err == nil && [4]byte(head[:4]) == Magic {
		if v := binary.LittleEndian.Uint32(head[4:8]); v == Version || v == VersionV4 {
			data, err := io.ReadAll(br)
			if err != nil {
				return nil, fmt.Errorf("codec: read: %w", err)
			}
			return parseAligned(data)
		}
	}
	return readStream(br)
}

// readStream decodes a v1–v3 model from the legacy streaming layout.
func readStream(br *bufio.Reader) (*Model, error) {
	d := &decoder{r: br}

	var magic [4]byte
	d.bytes(magic[:])
	if d.err == nil && magic != Magic {
		return nil, fmt.Errorf("codec: bad magic %q: not a CubeLSI model", magic[:])
	}
	version := d.u32()
	if d.err == nil && version != VersionV3 && version != VersionV2 && version != VersionV1 {
		// The same shape of error a pre-v5 reader reports on a v5 file:
		// name the offending version and every format this reader speaks,
		// so a mixed-version fleet diagnoses itself from the message.
		return nil, fmt.Errorf("codec: unsupported model version %d (want %d, %d, %d, %d or %d)", version, Version, VersionV4, VersionV3, VersionV2, VersionV1)
	}

	m := &Model{}
	m.Lowercase = d.bool()
	m.Assignments = d.length()

	m.Users = d.strings()
	m.Tags = d.strings()
	m.Resources = d.strings()

	if version != VersionV1 {
		for i := range m.CoreDims {
			m.CoreDims[i] = d.length()
		}
		m.Fit = d.f64()
	}
	if version >= VersionV3 {
		m.ModelVersion = d.u64()
		d.bytes(m.Fingerprint[:])
		m.Sweeps = d.length()
	}
	m.Decomp = d.decomposition()
	if version >= VersionV3 {
		m.Warm = d.warmStart()
	}
	if version == VersionV1 {
		m.Distances = d.matrix()
		// v1 carried the statistics only inside the decomposition. Guard
		// on the sticky error: a truncated stream yields a partially
		// decoded decomposition (nil core).
		if d.err == nil && m.Decomp != nil && m.Decomp.Core != nil {
			cj1, cj2, cj3 := m.Decomp.CoreDims()
			m.CoreDims = [3]int{cj1, cj2, cj3}
			m.Fit = m.Decomp.Fit
			m.Sweeps = m.Decomp.Sweeps
		}
	} else {
		m.Embedding = d.matrix()
	}

	n := d.length()
	m.Assign = make([]int, 0, capCap(n))
	for i := 0; i < n && d.err == nil; i++ {
		m.Assign = append(m.Assign, int(d.i64()))
	}
	m.K = d.length()

	snap := d.indexSnapshot()
	if d.err != nil {
		return nil, fmt.Errorf("codec: read: %w", d.err)
	}
	ix, err := ir.FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	m.Index = ix

	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
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
	switch {
	case m.Embedding != nil:
		if r, _ := m.Embedding.Dims(); r != nTags {
			return fmt.Errorf("codec: embedding has %d rows for %d tags", r, nTags)
		}
	case m.Distances != nil:
		if r, c := m.Distances.Dims(); r != nTags || c != nTags {
			return fmt.Errorf("codec: distance matrix is %d×%d for %d tags", r, c, nTags)
		}
	default:
		return fmt.Errorf("codec: model carries neither embedding nor distance matrix")
	}
	if m.Index.NumTerms() != m.K {
		return fmt.Errorf("codec: index has %d terms for %d concepts", m.Index.NumTerms(), m.K)
	}
	if m.Index.NumDocs() != len(m.Resources) {
		return fmt.Errorf("codec: index has %d docs for %d resources", m.Index.NumDocs(), len(m.Resources))
	}
	if m.Decomp != nil && m.Decomp.Y2.Rows() != nTags {
		return fmt.Errorf("codec: Y2 has %d rows for %d tags", m.Decomp.Y2.Rows(), nTags)
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

// encoder writes primitives with a sticky error.
type encoder struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.bytes([]byte{1})
	} else {
		e.bytes([]byte{0})
	}
}

func (e *encoder) length(n int) {
	if e.err == nil && n < 0 {
		e.err = fmt.Errorf("negative length %d", n)
		return
	}
	e.u64(uint64(n))
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) f64s(vs []float64) {
	e.length(len(vs))
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *encoder) string(s string) {
	e.length(len(s))
	e.bytes([]byte(s))
}

func (e *encoder) strings(ss []string) {
	e.length(len(ss))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *encoder) matrix(m *mat.Matrix) {
	rows, cols := m.Dims()
	e.length(rows)
	e.length(cols)
	e.f64s(m.Data())
}

func (e *encoder) dense3(t *tensor.Dense3) {
	i1, i2, i3 := t.Dims()
	e.length(i1)
	e.length(i2)
	e.length(i3)
	e.f64s(t.Data())
}

func (e *encoder) decomposition(d *tucker.Decomposition) {
	e.bool(d != nil)
	if d == nil {
		return
	}
	e.dense3(d.Core)
	e.matrix(d.Y1)
	e.matrix(d.Y2)
	e.matrix(d.Y3)
	for _, l := range d.Lambda {
		e.f64s(l)
	}
	e.f64(d.Fit)
	e.length(d.Sweeps)
}

func (e *encoder) warmStart(w *tucker.WarmStart) {
	e.bool(w != nil && w.Y2 != nil && w.Y3 != nil)
	if w == nil || w.Y2 == nil || w.Y3 == nil {
		return
	}
	e.matrix(w.Y2)
	e.matrix(w.Y3)
}

func (e *encoder) index(s *ir.IndexSnapshot) {
	e.length(s.NumTerms)
	e.length(s.NumDocs)
	e.length(len(s.DF))
	for _, v := range s.DF {
		e.i64(int64(v))
	}
	e.length(len(s.Postings))
	for _, ps := range s.Postings {
		e.length(len(ps))
		for _, p := range ps {
			e.i64(int64(p.Doc))
			e.f64(p.Weight)
		}
	}
	e.f64s(s.Norms)
}

// decoder reads primitives with a sticky error.
type decoder struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (d *decoder) bytes(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
	}
}

func (d *decoder) u32() uint32 {
	d.bytes(d.buf[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *decoder) u64() uint64 {
	d.bytes(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:8])
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) bool() bool {
	var b [1]byte
	d.bytes(b[:])
	return d.err == nil && b[0] != 0
}

func (d *decoder) length() int {
	v := d.u64()
	if d.err == nil && v > maxLen {
		d.err = fmt.Errorf("length %d exceeds limit", v)
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) f64s() []float64 {
	n := d.length()
	if d.err != nil {
		return nil
	}
	out := make([]float64, 0, capCap(n))
	for range n {
		if d.err != nil {
			return nil
		}
		out = append(out, d.f64())
	}
	return out
}

func (d *decoder) string() string {
	n := d.length()
	if d.err != nil || n == 0 {
		return ""
	}
	// Read in bounded chunks so a corrupt length fails on EOF without a
	// giant upfront allocation.
	var sb strings.Builder
	buf := make([]byte, capCap(n))
	for n > 0 && d.err == nil {
		chunk := buf
		if n < len(chunk) {
			chunk = chunk[:n]
		}
		d.bytes(chunk)
		if d.err != nil {
			return ""
		}
		sb.Write(chunk)
		n -= len(chunk)
	}
	return sb.String()
}

func (d *decoder) strings() []string {
	n := d.length()
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, capCap(n))
	for range n {
		if d.err != nil {
			return nil
		}
		out = append(out, d.string())
	}
	return out
}

func (d *decoder) matrix() *mat.Matrix {
	rows := d.length()
	cols := d.length()
	data := d.f64s()
	if d.err != nil {
		return nil
	}
	want, ok := checkedProduct(rows, cols)
	if !ok || len(data) != want {
		d.err = fmt.Errorf("matrix data length %d does not match %d×%d", len(data), rows, cols)
		return nil
	}
	return mat.FromData(rows, cols, data)
}

func (d *decoder) dense3() *tensor.Dense3 {
	i1 := d.length()
	i2 := d.length()
	i3 := d.length()
	data := d.f64s()
	if d.err != nil {
		return nil
	}
	want, ok := checkedProduct(i1, i2, i3)
	if !ok || len(data) != want {
		d.err = fmt.Errorf("tensor data length %d does not match %d×%d×%d", len(data), i1, i2, i3)
		return nil
	}
	t := tensor.NewDense3(i1, i2, i3)
	copy(t.Data(), data)
	return t
}

func (d *decoder) decomposition() *tucker.Decomposition {
	if !d.bool() {
		return nil
	}
	dec := &tucker.Decomposition{}
	dec.Core = d.dense3()
	dec.Y1 = d.matrix()
	dec.Y2 = d.matrix()
	dec.Y3 = d.matrix()
	for i := range dec.Lambda {
		dec.Lambda[i] = d.f64s()
	}
	dec.Fit = d.f64()
	dec.Sweeps = d.length()
	return dec
}

func (d *decoder) warmStart() *tucker.WarmStart {
	if !d.bool() {
		return nil
	}
	w := &tucker.WarmStart{}
	w.Y2 = d.matrix()
	w.Y3 = d.matrix()
	return w
}

func (d *decoder) indexSnapshot() *ir.IndexSnapshot {
	s := &ir.IndexSnapshot{}
	s.NumTerms = d.length()
	s.NumDocs = d.length()
	ndf := d.length()
	if d.err != nil {
		return s
	}
	s.DF = make([]int, 0, capCap(ndf))
	for i := 0; i < ndf && d.err == nil; i++ {
		s.DF = append(s.DF, int(d.i64()))
	}
	nt := d.length()
	if d.err != nil {
		return s
	}
	s.Postings = make([][]ir.Posting, 0, capCap(nt))
	for t := 0; t < nt && d.err == nil; t++ {
		np := d.length()
		if d.err != nil {
			return s
		}
		ps := make([]ir.Posting, 0, capCap(np))
		for i := 0; i < np && d.err == nil; i++ {
			ps = append(ps, ir.Posting{Doc: int(d.i64()), Weight: d.f64()})
		}
		s.Postings = append(s.Postings, ps)
	}
	s.Norms = d.f64s()
	return s
}
