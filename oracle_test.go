package cubelsi

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/race"
)

// The model hashes below were recorded on the same tree as
// internal/tucker's oracle factor hashes — before the decompose kernels
// were rewritten — and have not been regenerated since. They are the
// SHA-256 of the bytes Save(WithUserFactors()) writes for the deep_core
// benchmark corpus (datagen.LastFMLike at ratio 20, two sweeps to keep
// it short) after the initial build and after one warm-started
// Index.Apply of a held-out 1 % delta: everything the build computes
// from the factors — embedding, concepts, postings, user affinities —
// sits downstream of the kernels and is in these bytes.
const (
	goldenModelAfterBuild = "c89e00a8f972696831d7029f63425c920ba5c361494f5def6691351d85fe0abe"
	goldenModelAfterApply = "3ad19240ae99e9e54a13c37df05017874104de73c15c5b058d5f3b3b6d212489"
)

func modelHash(t *testing.T, eng *Engine) string {
	t.Helper()
	h := sha256.New()
	if err := eng.Save(h, WithUserFactors()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestKernelOracleModelHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden model bytes recorded on amd64, running on %s", runtime.GOARCH)
	}
	if testing.Short() || race.Enabled {
		t.Skip("builds and warm-updates the deep_core corpus")
	}
	raw := datagen.Generate(datagen.LastFMLike()).Raw
	var base, delta []Assignment
	for i, a := range raw.Assignments() {
		as := Assignment{
			User:     raw.Users.Name(a.User),
			Tag:      raw.Tags.Name(a.Tag),
			Resource: raw.Resources.Name(a.Resource),
		}
		if i%100 == 99 {
			delta = append(delta, as)
		} else {
			base = append(base, as)
		}
	}
	cfg := DefaultConfig()
	cfg.ReductionRatios = [3]float64{20, 20, 20}
	cfg.MaxSweeps = 2

	ctx := context.Background()
	idx, err := NewIndex(ctx, FromAssignments(base), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := modelHash(t, idx.Snapshot()); got != goldenModelAfterBuild {
		t.Errorf("after build: model hash %s, want %s", got, goldenModelAfterBuild)
	}
	rep, err := idx.Apply(ctx, Delta{Add: delta})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedAssignments == 0 {
		t.Fatal("delta added nothing")
	}
	if got := modelHash(t, idx.Snapshot()); got != goldenModelAfterApply {
		t.Errorf("after apply: model hash %s, want %s", got, goldenModelAfterApply)
	}
}
