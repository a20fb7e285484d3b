package codec

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/mat"
)

// withUserFactors attaches a deterministic |U|×K user-factor section —
// the codec v5 opt-in payload.
func withUserFactors(m *Model) *Model {
	u := mat.New(len(m.Users), m.K)
	for i := range len(m.Users) {
		for j := range m.K {
			u.Set(i, j, float64(i+1)/float64(j+2))
		}
	}
	m.UserFactors = u
	return m
}

func TestV5RoundtripUserFactors(t *testing.T) {
	// The opt-in section alone, and stacked with both quantized views —
	// it sits after them in the layout, so the combined variant covers
	// the section ordering.
	// A model without the section round-trips without inventing one.
	for _, m := range []*Model{
		withUserFactors(withLifecycle(buildModel(t))),
		withUserFactors(withQuant(withLifecycle(buildModel(t)))),
		withLifecycle(buildModel(t)),
	} {
		eqModels(t, roundtrip(t, m), m)
	}
}

func TestReadMappedV5UserFactors(t *testing.T) {
	readMapped(t, withUserFactors(withQuant(withLifecycle(buildModel(t))))).Mapped.Close()
}

func TestV5UnalignedBufferFallsBack(t *testing.T) {
	requireUnalignedFallback(t, withUserFactors(withLifecycle(buildModel(t))))
}

// TestV4StreamWithUserFlagRejected corrupts a v5 stream's version field
// down to 4: a v4 stream claiming the v5 user-factor flag is
// self-contradictory and must fail with a message naming the flag, not
// misparse the trailing section.
func TestV4StreamWithUserFlagRejected(t *testing.T) {
	m := withUserFactors(withLifecycle(buildModel(t)))
	b := written(t, m)
	binary.LittleEndian.PutUint32(b[4:8], VersionV4)
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "user-factor flag") {
		t.Fatalf("err = %v, want user-factor flag rejection", err)
	}
}

// TestUnsupportedVersionMessageListsKnown is the forward-compat error a
// reader from this revision gives a file from a future format: the
// message names the unknown version and every version it can decode, so
// the operator knows to upgrade the reader rather than suspect the file.
func TestUnsupportedVersionMessageListsKnown(t *testing.T) {
	m := withLifecycle(buildModel(t))
	b := written(t, m)
	binary.LittleEndian.PutUint32(b[4:8], Version+1)
	_, err := Read(bytes.NewReader(b))
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "unsupported model version 6") || !strings.Contains(err.Error(), "want 5 or 4") {
		t.Fatalf("err = %v, want self-diagnosing version list", err)
	}
}

// TestUserFactorShapeValidated rejects a section whose dimensions
// disagree with the vocabularies.
func TestUserFactorShapeValidated(t *testing.T) {
	m := withLifecycle(buildModel(t))
	m.UserFactors = mat.New(len(m.Users)+1, m.K)
	var buf bytes.Buffer
	if err := Write(&buf, m); err == nil || !strings.Contains(err.Error(), "user-factor section") {
		t.Fatalf("err = %v, want user-factor shape rejection", err)
	}
}

// TestV5TruncatedFailsFast runs the truncation ladder over a stream
// carrying every optional section, user factors included.
func TestV5TruncatedFailsFast(t *testing.T) {
	m := withUserFactors(withQuant(withLifecycle(buildModel(t))))
	requireTruncationsFail(t, m)
	// Cutting inside the trailing user-factor section specifically.
	if full := written(t, m); !errRead(full[:len(full)-8]) {
		t.Fatal("truncation inside the user-factor section accepted")
	}
}
