package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/quant"
)

// withQuant attaches both quantized views of the embedding to a model.
func withQuant(m *Model) *Model {
	m.Quant8 = quant.QuantizeInt8(m.Embedding)
	m.Quant16 = quant.QuantizeFloat16(m.Embedding)
	return m
}

func TestV4RoundtripQuantSections(t *testing.T) {
	m := withQuant(withLifecycle(buildModel(t)))
	eqModels(t, roundtrip(t, m), m)
}

func TestV4RoundtripSingleQuantSection(t *testing.T) {
	m8 := withLifecycle(buildModel(t))
	m8.Quant8 = quant.QuantizeInt8(m8.Embedding)
	eqModels(t, roundtrip(t, m8), m8)

	m16 := withLifecycle(buildModel(t))
	m16.Quant16 = quant.QuantizeFloat16(m16.Embedding)
	eqModels(t, roundtrip(t, m16), m16)
}

// writeTempModel writes m to a model file and returns its path.
func writeTempModel(t *testing.T, m *Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.clsi")
	if err := os.WriteFile(path, written(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readMapped writes m to a file and opens it with ReadMapped, checking
// the model matches m and is a real mapping on Linux.
func readMapped(t *testing.T, m *Model) *Model {
	t.Helper()
	mapped, err := ReadMapped(writeTempModel(t, m))
	if err != nil {
		t.Fatal(err)
	}
	eqModels(t, mapped, m)
	if runtime.GOOS == "linux" && (mapped.Mapped == nil || !mapped.Mapped.Mapped()) {
		t.Fatal("model on linux did not come back memory-mapped")
	}
	return mapped
}

func TestReadMappedMatchesRead(t *testing.T) {
	m := withQuant(withLifecycle(buildModel(t)))
	mapped := readMapped(t, m)

	// Vocabulary strings must survive the mapping's release: the parser
	// copies the blob to the heap exactly so closed mappings can't leave
	// dangling tag names behind.
	tags := mapped.Tags
	if err := mapped.Mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Mapped.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if !slices.Equal(tags, m.Tags) {
		t.Fatalf("tags corrupted after Close: %q", tags)
	}
}

func TestReadMappedMissingFile(t *testing.T) {
	if _, err := ReadMapped(filepath.Join(t.TempDir(), "nope.clsi")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// requireUnalignedFallback parses m's encoding from a buffer shifted
// off 8-byte alignment, as Read may hand the parser: the element-wise
// fallback must produce the identical model.
func requireUnalignedFallback(t *testing.T, m *Model) {
	t.Helper()
	data := written(t, m)
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	got, err := parseAligned(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	eqModels(t, got, m)
}

func TestV4UnalignedBufferFallsBack(t *testing.T) {
	requireUnalignedFallback(t, withQuant(withLifecycle(buildModel(t))))
}

func TestV4TruncatedFailsFast(t *testing.T) {
	requireTruncationsFail(t, withQuant(withLifecycle(buildModel(t))))
}

func TestV4CorruptVocabOffsetsRejected(t *testing.T) {
	m := withLifecycle(buildModel(t))
	b := written(t, m)
	// The users vocabulary's offset table starts right after the fixed
	// header (magic 4 + version 4 + flags 1 + lowercase 1 + assignments 8
	// + count 8 + pad to 8 = offset 32). Make the first cumulative offset
	// non-zero.
	b[32] = 0xff
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "vocabulary") {
		t.Fatalf("err = %v, want vocabulary offset error", err)
	}
}
