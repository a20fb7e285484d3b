package codec

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/tucker"
)

// withLifecycle populates the lifecycle header of a test model beyond
// what buildModel sets: a non-initial version counter and a fingerprint.
func withLifecycle(m *Model) *Model {
	m.ModelVersion = 7
	m.Fingerprint = sha256.Sum256([]byte("corpus"))
	return m
}

// TestRoundtripLifecycleHeader proves the lifecycle header and the
// warm-start section survive a write/read cycle bit-for-bit.
func TestRoundtripLifecycleHeader(t *testing.T) {
	m := withLifecycle(buildModel(t))
	got := roundtrip(t, m)
	eqModels(t, got, m)
	if got.Sweeps == 0 || got.Warm == nil {
		t.Fatalf("sweeps %d, warm section %v: want both set", got.Sweeps, got.Warm != nil)
	}
}

// TestWarmStartShapeValidated: a warm section whose factor rows disagree
// with the vocabularies must be rejected at read time.
func TestWarmStartShapeValidated(t *testing.T) {
	for _, bad := range []func(w *tucker.WarmStart){
		func(w *tucker.WarmStart) { w.Y2 = mat.New(1, 2) },
		func(w *tucker.WarmStart) { w.Y3 = mat.New(1, 2) },
	} {
		m := withLifecycle(buildModel(t))
		bad(m.Warm)
		if _, err := Read(bytes.NewReader(written(t, m))); err == nil || !strings.Contains(err.Error(), "warm-start") {
			t.Fatalf("err = %v, want warm-start shape error", err)
		}
	}
}

// TestWarmStartHalfNilWrittenAsAbsent: an incomplete WarmStart value is
// encoded as "no warm section", never as a torn one.
func TestWarmStartHalfNilWrittenAsAbsent(t *testing.T) {
	m := withLifecycle(buildModel(t))
	m.Warm = &tucker.WarmStart{Y2: m.Warm.Y2}
	got := roundtrip(t, m)
	if got.Warm != nil {
		t.Fatal("half-populated warm start must decode as absent")
	}
}
