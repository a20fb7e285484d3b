package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/tucker"
)

// In the aligned layout every bulk numeric payload (float64, uint16) is
// preceded by zero padding up to the next 8-byte boundary of the
// stream, so a reader holding the whole file — a memory mapping or one
// io.ReadAll buffer — can alias the payload in place with unsafe.Slice
// instead of decoding ~10⁷ elements one by one. Vocabulary
// strings are stored as one blob plus cumulative offsets; the parser
// copies the blob to the heap once (so returned strings never dangle
// into a closed mapping) and builds zero-copy string headers into the
// copy. Aliasing requires a native little-endian machine and an aligned
// base pointer; the parser verifies both at runtime and falls back to
// element-wise decoding, so the format itself stays portable.

// Aligned-layout section flag bits (the byte after the version).
const (
	v4FlagInt8    = 1 << 0
	v4FlagFloat16 = 1 << 1
	// v5FlagUserFactors marks the compacted user-mode section; v5 only —
	// a v4 stream carrying it is corrupt, and a v4-era reader meeting a
	// v5 file fails on the version field with its "unsupported model
	// version" error before ever seeing this bit.
	v5FlagUserFactors = 1 << 2
)

// nativeLittleEndian reports whether float64/uint16 payloads can be
// aliased directly from little-endian file bytes on this machine.
var nativeLittleEndian = func() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 0x0102)
	return b[0] == 0x02
}()

// Write encodes the model to w in the current (v5) format, with the
// quantized embedding sections included when m.Quant8 / m.Quant16 are
// set and the user-factor section when m.UserFactors is set.
// m.Embedding must be set.
func Write(w io.Writer, m *Model) error {
	if m.Embedding == nil {
		return fmt.Errorf("codec: write: model has no tag embedding (see embed.FromDecomposition)")
	}
	if m.UserFactors != nil {
		if r, c := m.UserFactors.Dims(); r != len(m.Users) || c != m.K {
			return fmt.Errorf("codec: write: user-factor section is %d×%d for %d users and %d concepts", r, c, len(m.Users), m.K)
		}
	}
	e := &encoder{w: bufio.NewWriter(w)}

	e.bytes(Magic[:])
	e.u32(Version)
	var flags byte
	if m.Quant8 != nil {
		flags |= v4FlagInt8
	}
	if m.Quant16 != nil {
		flags |= v4FlagFloat16
	}
	if m.UserFactors != nil {
		flags |= v5FlagUserFactors
	}
	e.byte(flags)
	e.bool(m.Lowercase)
	e.length(m.Assignments)

	e.vocab(m.Users)
	e.vocab(m.Tags)
	e.vocab(m.Resources)

	for _, d := range m.CoreDims {
		e.length(d)
	}
	e.f64(m.Fit)
	e.u64(m.ModelVersion)
	e.bytes(m.Fingerprint[:])
	e.length(m.Sweeps)

	// The decomposition presence byte, kept so the layout does not move:
	// it once announced the full Tucker factors, no writer has set it
	// since format v2, and the parser rejects it.
	e.bool(false)
	e.warmStart(m.Warm)
	e.matrix(m.Embedding)

	e.length(len(m.Assign))
	for _, c := range m.Assign {
		e.i64(int64(c))
	}
	e.length(m.K)

	e.index(m.Index.Snapshot())

	if m.Quant8 != nil {
		e.length(m.Quant8.Rows)
		e.length(m.Quant8.Cols)
		e.f64s(m.Quant8.Scale)
		e.f64s(m.Quant8.Zero)
		e.int8s(m.Quant8.Codes)
	}
	if m.Quant16 != nil {
		e.length(m.Quant16.Rows)
		e.length(m.Quant16.Cols)
		e.u16s(m.Quant16.Bits)
	}
	if flags&v5FlagUserFactors != 0 {
		// Last section: after the quant payloads (int8 bytes / uint16
		// halves) the encoder re-pads to an 8-byte boundary inside f64s,
		// so the factor rows stay aliasable from a mapping like every
		// other float64 payload.
		e.matrix(m.UserFactors)
	}

	if e.err != nil {
		return fmt.Errorf("codec: write: %w", e.err)
	}
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("codec: write: %w", err)
	}
	return nil
}

// encoder writes primitives with a sticky error, tracking the stream
// offset so bulk payloads can be padded to 8-byte alignment.
type encoder struct {
	w   *bufio.Writer
	off int64
	err error
	buf [8]byte
}

func (e *encoder) bytes(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.off += int64(n)
	e.err = err
}

func (e *encoder) byte(b byte) { e.bytes([]byte{b}) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
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

func (e *encoder) length(n int) {
	if e.err == nil && n < 0 {
		e.err = fmt.Errorf("negative length %d", n)
		return
	}
	e.u64(uint64(n))
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// pad8 writes zero bytes up to the next 8-byte stream boundary.
func (e *encoder) pad8() {
	var zero [8]byte
	if rem := int(e.off & 7); rem != 0 {
		e.bytes(zero[:8-rem])
	}
}

// f64s writes a length-prefixed, 8-aligned float64 payload.
func (e *encoder) f64s(vs []float64) {
	e.length(len(vs))
	e.pad8()
	if nativeLittleEndian && len(vs) > 0 {
		e.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs)))
		return
	}
	for _, v := range vs {
		e.f64(v)
	}
}

// u16s writes a length-prefixed, 8-aligned uint16 payload.
func (e *encoder) u16s(vs []uint16) {
	e.length(len(vs))
	e.pad8()
	if nativeLittleEndian && len(vs) > 0 {
		e.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 2*len(vs)))
		return
	}
	for _, v := range vs {
		binary.LittleEndian.PutUint16(e.buf[:2], v)
		e.bytes(e.buf[:2])
	}
}

// int8s writes a length-prefixed int8 payload (no alignment needed).
func (e *encoder) int8s(vs []int8) {
	e.length(len(vs))
	if len(vs) > 0 {
		e.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)))
	}
}

// vocab writes a string table as {count, count+1 cumulative offsets,
// blob} so the reader rebuilds every string from one slab.
func (e *encoder) vocab(ss []string) {
	e.length(len(ss))
	e.pad8()
	var off uint64
	e.u64(off)
	for _, s := range ss {
		off += uint64(len(s))
		e.u64(off)
	}
	for _, s := range ss {
		e.bytes([]byte(s))
	}
}

func (e *encoder) matrix(m *mat.Matrix) {
	rows, cols := m.Dims()
	e.length(rows)
	e.length(cols)
	e.f64s(m.Data())
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

// parseAligned decodes a whole v4/v5 image (a mapping or one read
// buffer). Numeric payloads alias data when the machine allows it, so
// the caller must keep data alive (and unmodified) for the model's
// lifetime.
func parseAligned(data []byte) (*Model, error) {
	c := &cursor{data: data}

	var magic [4]byte
	c.read(magic[:])
	if c.err == nil && magic != Magic {
		return nil, fmt.Errorf("codec: bad magic %q: not a CubeLSI model", magic[:])
	}
	version := c.u32()
	if c.err == nil {
		if err := checkVersion(version); err != nil {
			return nil, err
		}
	}
	flags := c.byte()
	if flags&v5FlagUserFactors != 0 && version < Version {
		return nil, fmt.Errorf("codec: v%d stream carries the v%d user-factor flag", version, Version)
	}

	m := &Model{}
	m.Lowercase = c.bool()
	m.Assignments = c.length()

	m.Users = c.vocab()
	m.Tags = c.vocab()
	m.Resources = c.vocab()

	for i := range m.CoreDims {
		m.CoreDims[i] = c.length()
	}
	m.Fit = c.f64()
	m.ModelVersion = c.u64()
	c.read(m.Fingerprint[:])
	m.Sweeps = c.length()

	if c.bool() {
		return nil, fmt.Errorf("codec: corrupt model: the decomposition byte is set (no writer has set it since format v2)")
	}
	m.Warm = c.warmStart()
	m.Embedding = c.matrix()

	n := c.length()
	m.Assign = make([]int, 0, capCap(n))
	for i := 0; i < n && c.err == nil; i++ {
		m.Assign = append(m.Assign, int(c.i64()))
	}
	m.K = c.length()

	snap := c.indexSnapshot()

	if flags&v4FlagInt8 != 0 {
		q := &quant.Int8{}
		q.Rows = c.length()
		q.Cols = c.length()
		q.Scale = c.f64s()
		q.Zero = c.f64s()
		q.Codes = c.int8s()
		m.Quant8 = q
	}
	if flags&v4FlagFloat16 != 0 {
		q := &quant.Float16{}
		q.Rows = c.length()
		q.Cols = c.length()
		q.Bits = c.u16s()
		m.Quant16 = q
	}
	if flags&v5FlagUserFactors != 0 {
		m.UserFactors = c.matrix()
	}

	if c.err != nil {
		return nil, fmt.Errorf("codec: read: %w", c.err)
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

// cursor walks a whole model image with a sticky error and bounds checks
// on every read, aliasing aligned payloads where possible.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n raw bytes without copying.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.fail("truncated stream: need %d bytes at offset %d of %d", n, c.off, len(c.data))
		return nil
	}
	p := c.data[c.off : c.off+n]
	c.off += n
	return p
}

func (c *cursor) read(dst []byte) {
	if p := c.take(len(dst)); p != nil {
		copy(dst, p)
	}
}

func (c *cursor) byte() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) bool() bool { return c.byte() != 0 }

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) length() int {
	v := c.u64()
	if c.err == nil && v > maxLen {
		c.fail("length %d exceeds limit", v)
		return 0
	}
	return int(v)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// align8 skips the padding up to the next 8-byte boundary.
func (c *cursor) align8() {
	if rem := c.off & 7; rem != 0 {
		c.take(8 - rem)
	}
}

// aliasable reports whether an n-byte payload at p can be reinterpreted
// as elements of size and alignment elem on this machine.
func aliasable(p []byte, elem uintptr) bool {
	return nativeLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(p)))%elem == 0
}

// f64s reads a length-prefixed aligned float64 payload, aliasing the
// image bytes when the machine allows it.
func (c *cursor) f64s() []float64 {
	n := c.length()
	c.align8()
	size, ok := checkedProduct(n, 8)
	if c.err == nil && !ok {
		c.fail("float64 payload of %d elements exceeds limit", n)
	}
	p := c.take(size)
	if c.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if aliasable(p, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(p))), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// u16s reads a length-prefixed aligned uint16 payload.
func (c *cursor) u16s() []uint16 {
	n := c.length()
	c.align8()
	size, ok := checkedProduct(n, 2)
	if c.err == nil && !ok {
		c.fail("uint16 payload of %d elements exceeds limit", n)
	}
	p := c.take(size)
	if c.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if aliasable(p, 2) {
		return unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(p))), n)
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(p[2*i:])
	}
	return out
}

// int8s reads a length-prefixed int8 payload (always aliasable).
func (c *cursor) int8s() []int8 {
	n := c.length()
	p := c.take(n)
	if c.err != nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(p))), n)
}

// vocab reads a string table. The blob is copied to the heap once so
// the returned strings stay valid after a mapping is closed; string
// headers are built zero-copy into that one copy.
func (c *cursor) vocab() []string {
	n := c.length()
	c.align8()
	if c.err != nil {
		return nil
	}
	offBytes, ok := checkedProduct(n+1, 8)
	if !ok {
		c.fail("vocabulary of %d strings exceeds limit", n)
		return nil
	}
	offs := c.take(offBytes)
	if c.err != nil {
		return nil
	}
	total := binary.LittleEndian.Uint64(offs[8*n:])
	if total > maxLen {
		c.fail("vocabulary blob of %d bytes exceeds limit", total)
		return nil
	}
	blob := c.take(int(total))
	if c.err != nil {
		return nil
	}
	heap := make([]byte, len(blob))
	copy(heap, blob)
	out := make([]string, n)
	prev := uint64(0)
	if binary.LittleEndian.Uint64(offs) != 0 {
		c.fail("vocabulary offsets do not start at 0")
		return nil
	}
	for i := range n {
		end := binary.LittleEndian.Uint64(offs[8*(i+1):])
		if end < prev || end > total {
			c.fail("vocabulary offsets not monotonic")
			return nil
		}
		if end > prev {
			out[i] = unsafe.String(&heap[prev], int(end-prev))
		}
		prev = end
	}
	return out
}

func (c *cursor) matrix() *mat.Matrix {
	rows := c.length()
	cols := c.length()
	data := c.f64s()
	if c.err != nil {
		return nil
	}
	want, ok := checkedProduct(rows, cols)
	if !ok || len(data) != want {
		c.fail("matrix data length %d does not match %d×%d", len(data), rows, cols)
		return nil
	}
	return mat.FromData(rows, cols, data)
}

func (c *cursor) warmStart() *tucker.WarmStart {
	if !c.bool() {
		return nil
	}
	w := &tucker.WarmStart{}
	w.Y2 = c.matrix()
	w.Y3 = c.matrix()
	return w
}

func (c *cursor) indexSnapshot() *ir.IndexSnapshot {
	s := &ir.IndexSnapshot{}
	s.NumTerms = c.length()
	s.NumDocs = c.length()
	ndf := c.length()
	if c.err != nil {
		return s
	}
	s.DF = make([]int, 0, capCap(ndf))
	for i := 0; i < ndf && c.err == nil; i++ {
		s.DF = append(s.DF, int(c.i64()))
	}
	nt := c.length()
	if c.err != nil {
		return s
	}
	s.Postings = make([][]ir.Posting, 0, capCap(nt))
	for t := 0; t < nt && c.err == nil; t++ {
		np := c.length()
		if c.err != nil {
			return s
		}
		ps := make([]ir.Posting, 0, capCap(np))
		for i := 0; i < np && c.err == nil; i++ {
			ps = append(ps, ir.Posting{Doc: int(c.i64()), Weight: c.f64()})
		}
		s.Postings = append(s.Postings, ps)
	}
	s.Norms = c.f64s()
	return s
}
