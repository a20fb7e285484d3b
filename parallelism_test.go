package cubelsi

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// TestParallelismOptionValidation pins the boundary behavior of the
// parallelism knob: zero, one and above-row-count values build (and
// serve identically to the default build), while negative values are
// rejected up front with an error wrapping ErrInvalidOptions instead of
// being silently clamped.
func TestParallelismOptionValidation(t *testing.T) {
	baseline := buildCorpus(t)
	ok := []struct {
		name string
		opt  BuildOption
	}{
		{"workers=0", WithTuckerParallelism(0)},
		{"workers=1", WithTuckerParallelism(1)},
		{"workers>rows", WithTuckerParallelism(10_000)},
	}
	for _, tc := range ok {
		eng := buildCorpus(t, WithConfig(testConfig()), tc.opt)
		if eng.Stats() != baseline.Stats() {
			t.Fatalf("%s: stats diverge: %+v vs %+v", tc.name, eng.Stats(), baseline.Stats())
		}
	}

	bad := []struct {
		name string
		opt  BuildOption
		frag string
	}{
		{"workers=-1", WithTuckerParallelism(-1), "WithTuckerParallelism(-1)"},
		{"workers=-7", WithTuckerParallelism(-7), "WithTuckerParallelism(-7)"},
	}
	ctx := context.Background()
	for _, tc := range bad {
		_, err := Build(ctx, FromAssignments(corpus()), WithConfig(testConfig()), tc.opt)
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: Build error = %v, want ErrInvalidOptions", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %q does not name the option", tc.name, err)
		}
		if _, err := NewIndex(ctx, FromAssignments(corpus()), WithConfig(testConfig()), tc.opt); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("%s: NewIndex error = %v, want ErrInvalidOptions", tc.name, err)
		}
	}

	// The first invalid option wins even when followed by a valid one.
	if _, err := Build(ctx, FromAssignments(corpus()), WithTuckerParallelism(-1), WithTuckerParallelism(2)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("error = %v, want ErrInvalidOptions", err)
	}
}

// TestWorkerCountModelBytesIdentical holds the bit-identity contract of
// the one fan-out the offline build has: the saved model — embedding,
// warm-start factors, user factors and all — is the same file, byte for
// byte, whether the ALS sweep ran serially, on two workers, or on one
// worker per logical CPU.
func TestWorkerCountModelBytesIdentical(t *testing.T) {
	raw := datagen.Generate(datagen.Tiny()).Raw
	cfg := DefaultConfig()
	// Ratio 2 puts every projected unfolding above the pool's inline
	// threshold (1<<18 ops), so the multi-worker builds really fan out.
	cfg.ReductionRatios = [3]float64{2, 2, 2}
	dir := t.TempDir()
	var want []byte
	for _, workers := range []int{1, 2, 0} {
		eng, err := Build(context.Background(), FromDataset(raw), WithConfig(cfg), WithTuckerParallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		path := filepath.Join(dir, "model.clsi")
		if err := eng.SaveFile(path, WithUserFactors()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: model file (%d bytes) differs from the workers=1 file (%d bytes)", workers, len(got), len(want))
		}
	}
}
