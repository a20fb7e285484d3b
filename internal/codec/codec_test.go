package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

func buildModel(t testing.TB) *Model {
	t.Helper()
	ds := tagging.NewDataset()
	users := []string{"u1", "u2", "u3", "u4"}
	tags := []string{"folk", "people", "laptop", "notebook"}
	res := []string{"r1", "r2", "r3", "r4", "r5"}
	for ui, u := range users {
		for ti, tag := range tags {
			for ri, r := range res {
				if (ui+ti+ri)%2 == 0 {
					ds.Add(u, tag, r)
				}
			}
		}
	}
	p, err := core.Build(context.Background(), ds, core.Options{
		Tucker:   tucker.Options{J1: 3, J2: 3, J3: 3, Seed: 1},
		Spectral: cluster.SpectralOptions{K: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cj1, cj2, cj3 := p.Decomposition.CoreDims()
	return &Model{
		Lowercase:   true,
		Assignments: len(ds.Assignments()),
		Users:       ds.Users.Names(),
		Tags:        ds.Tags.Names(),
		Resources:   ds.Resources.Names(),
		CoreDims:    [3]int{cj1, cj2, cj3},
		Fit:         p.Decomposition.Fit,
		Sweeps:      p.Decomposition.Sweeps,
		Warm:        &tucker.WarmStart{Y2: p.Decomposition.Y2, Y3: p.Decomposition.Y3},
		Embedding:   p.Embedding.Matrix(),
		Assign:      p.Assign,
		K:           p.K,
		Index:       p.Index,
	}
}

// written returns m as Write encodes it.
func written(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func roundtrip(t *testing.T, m *Model) *Model {
	t.Helper()
	got, err := Read(bytes.NewReader(written(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundtripExact(t *testing.T) {
	m := buildModel(t)
	eqModels(t, roundtrip(t, m), m)
}

func eqF64Bits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s not bit-identical at %d", name, i)
		}
	}
}

// eqModels fails unless got carries every section of want bit for bit,
// and the index answers a query identically.
func eqModels(t *testing.T, got, want *Model) {
	t.Helper()
	if got.Lowercase != want.Lowercase || got.Assignments != want.Assignments ||
		got.K != want.K || got.CoreDims != want.CoreDims || math.Float64bits(got.Fit) != math.Float64bits(want.Fit) ||
		got.ModelVersion != want.ModelVersion || got.Fingerprint != want.Fingerprint ||
		got.Sweeps != want.Sweeps {
		t.Fatal("scalar sections changed across the roundtrip")
	}
	if !slices.Equal(got.Users, want.Users) || !slices.Equal(got.Tags, want.Tags) ||
		!slices.Equal(got.Resources, want.Resources) || !slices.Equal(got.Assign, want.Assign) {
		t.Fatal("vocabularies or concept assignment changed")
	}
	eqF64Bits(t, "embedding", got.Embedding.Data(), want.Embedding.Data())
	if (got.Warm == nil) != (want.Warm == nil) || (got.Quant8 == nil) != (want.Quant8 == nil) ||
		(got.Quant16 == nil) != (want.Quant16 == nil) || (got.UserFactors == nil) != (want.UserFactors == nil) {
		t.Fatal("optional sections lost or invented")
	}
	if want.Warm != nil {
		eqF64Bits(t, "warm Y2", got.Warm.Y2.Data(), want.Warm.Y2.Data())
		eqF64Bits(t, "warm Y3", got.Warm.Y3.Data(), want.Warm.Y3.Data())
	}
	if q := want.Quant8; q != nil {
		if got.Quant8.Rows != q.Rows || got.Quant8.Cols != q.Cols || !slices.Equal(got.Quant8.Codes, q.Codes) {
			t.Fatal("int8 section changed")
		}
		eqF64Bits(t, "int8 scale", got.Quant8.Scale, q.Scale)
		eqF64Bits(t, "int8 zero", got.Quant8.Zero, q.Zero)
	}
	if want.Quant16 != nil && !slices.Equal(got.Quant16.Bits, want.Quant16.Bits) {
		t.Fatal("float16 section changed")
	}
	if want.UserFactors != nil {
		if gr, gc := got.UserFactors.Dims(); gr != want.UserFactors.Rows() || gc != want.UserFactors.Cols() {
			t.Fatalf("user-factor shape %d×%d changed", gr, gc)
		}
		eqF64Bits(t, "user factors", got.UserFactors.Data(), want.UserFactors.Data())
	}
	q := map[int]int{0: 1}
	if a, b := want.Index.Query(q, 0), got.Index.Query(q, 0); !slices.Equal(a, b) {
		t.Fatalf("index answers %+v, want %+v", b, a)
	}
}

// decompByteSet returns a written model with its decomposition
// presence byte — the byte after the sweeps field, located through a
// sentinel sweep count — checked to be 0 and then set.
func decompByteSet(t testing.TB) []byte {
	m := buildModel(t)
	m.Sweeps = 0x5ca1ab1e
	b := written(t, m)
	off := bytes.Index(b, binary.LittleEndian.AppendUint64(nil, 0x5ca1ab1e)) + 8
	if off < 8 || b[off] != 0 {
		t.Fatalf("decomposition byte at %d not written as 0", off)
	}
	b[off] = 1
	return b
}

// TestRoundtripNilDecomp: Write never emits a decomposition (the
// layout's presence byte is 0), and a file that sets the byte is refused
// rather than misparsed.
func TestRoundtripNilDecomp(t *testing.T) {
	if _, err := Read(bytes.NewReader(decompByteSet(t))); err == nil || !strings.Contains(err.Error(), "decomposition byte") {
		t.Fatalf("err = %v, want decomposition-byte rejection", err)
	}
}

func TestWriteRequiresEmbedding(t *testing.T) {
	m := buildModel(t)
	m.Embedding = nil
	var buf bytes.Buffer
	if err := Write(&buf, m); err == nil || !strings.Contains(err.Error(), "embedding") {
		t.Fatalf("err = %v, want missing-embedding error", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad-magic error", err)
	}
}

func TestBadVersion(t *testing.T) {
	b := written(t, buildModel(t))
	b[4] = 99 // bump version field
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

// requireTruncationsFail reads prefixes of m's encoding at fractions
// across its length: each must be an error, never a panic or a silently
// short model.
func requireTruncationsFail(t *testing.T, m *Model) {
	t.Helper()
	full := written(t, m)
	for frac := range 50 {
		if cut := full[:len(full)*frac/50]; !errRead(cut) {
			t.Fatalf("truncation to %d of %d bytes accepted", len(cut), len(full))
		}
	}
}

func errRead(b []byte) bool {
	_, err := Read(bytes.NewReader(b))
	return err != nil
}

func TestTruncatedStream(t *testing.T) { requireTruncationsFail(t, buildModel(t)) }

func TestHugeLengthFieldFailsFast(t *testing.T) {
	// A tiny stream claiming a multi-billion-element section must fail
	// on EOF after a bounded allocation, not attempt a giant make().
	b := append(Magic[:], 5, 0, 0, 0, 0, 1)        // version 5, flags, lowercase
	b = binary.LittleEndian.AppendUint64(b, 0)     // assignments
	b = binary.LittleEndian.AppendUint64(b, 1<<30) // users: 2^30 with no data behind
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("want error for truncated huge section")
	}
}

func TestCheckedProduct(t *testing.T) {
	if p, ok := checkedProduct(3, 4, 5); !ok || p != 60 {
		t.Fatalf("checkedProduct(3,4,5) = %d, %v", p, ok)
	}
	if _, ok := checkedProduct(1<<31, 1<<31, 4); ok {
		t.Fatal("overflowing product must be rejected")
	}
	if _, ok := checkedProduct(-1, 2); ok {
		t.Fatal("negative dimension must be rejected")
	}
	if p, ok := checkedProduct(0, 1<<30); !ok || p != 0 {
		t.Fatalf("zero dimension: %d, %v", p, ok)
	}
}

func TestCorruptAssignRejected(t *testing.T) {
	m := buildModel(t)
	m.Assign = append([]int(nil), m.Assign...)
	m.Assign[0] = m.K + 5 // out-of-range concept
	if _, err := Read(bytes.NewReader(written(t, m))); err == nil || !strings.Contains(err.Error(), "concept") {
		t.Fatalf("err = %v, want concept-range error", err)
	}
}

func TestShapeMismatchRejected(t *testing.T) {
	m := buildModel(t)
	m.Tags = m.Tags[:len(m.Tags)-1] // vocabulary no longer matches Assign
	if _, err := Read(bytes.NewReader(written(t, m))); err == nil {
		t.Fatal("want shape-mismatch error")
	}
}
