package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

func paperDataset() *tagging.Dataset {
	d := tagging.NewDataset()
	d.Add("u1", "folk", "r1")
	d.Add("u1", "folk", "r2")
	d.Add("u2", "folk", "r2")
	d.Add("u3", "folk", "r2")
	d.Add("u1", "people", "r1")
	d.Add("u2", "laptop", "r3")
	d.Add("u3", "laptop", "r3")
	return d
}

func mustBuild(t *testing.T, ds *tagging.Dataset, opts Options) *Pipeline {
	t.Helper()
	p, err := Build(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildRunningExample(t *testing.T) {
	p := mustBuild(t, paperDataset(), Options{
		Tucker:   tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1},
		Spectral: cluster.SpectralOptions{Sigma: 1, K: 2, Seed: 5},
	})
	if p.K != 2 {
		t.Fatalf("K = %d, want 2", p.K)
	}
	// folk and people together, laptop apart (Section V).
	if p.Assign[0] != p.Assign[1] || p.Assign[2] == p.Assign[0] {
		t.Fatalf("assignment = %v", p.Assign)
	}
	// Query "people" retrieves r2 via the shared concept.
	res := p.Query([]string{"people"}, 0)
	r2, _ := p.DS.Resources.Lookup("r2")
	found := false
	for _, s := range res {
		if s.Doc == r2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("people query missed r2: %v", res)
	}
}

func TestTimingsPopulated(t *testing.T) {
	c := datagen.Generate(datagen.Tiny())
	p := mustBuild(t, c.Clean, Options{
		Tucker:   tucker.Options{J1: 8, J2: 10, J3: 8, Seed: 2},
		Spectral: cluster.SpectralOptions{K: 12, Seed: 2},
	})
	if p.Times.Decompose <= 0 || p.Times.Embed <= 0 || p.Times.Cluster <= 0 {
		t.Fatalf("timings not populated: %+v", p.Times)
	}
	if p.Times.Offline() > p.Times.Total() {
		t.Fatal("offline must not exceed total")
	}
	if p.Embedding.NumTags() != c.Clean.Tags.Len() {
		t.Fatal("embedding size mismatch")
	}
	if p.Distances != nil {
		t.Fatal("embedding path must not materialize the distance matrix")
	}
	// The lazy view materializes (and caches) on demand.
	if p.DistanceMatrix().Rows() != c.Clean.Tags.Len() {
		t.Fatal("distance matrix size mismatch")
	}
	if p.DistanceMatrix() != p.Distances {
		t.Fatal("DistanceMatrix must cache")
	}
}

func TestQueryDeterministicAcrossBuilds(t *testing.T) {
	c := datagen.Generate(datagen.Tiny())
	opts := Options{
		Tucker:   tucker.Options{J1: 8, J2: 10, J3: 8, Seed: 3},
		Spectral: cluster.SpectralOptions{K: 12, Seed: 3},
	}
	a := mustBuild(t, c.Clean, opts)
	b := mustBuild(t, c.Clean, opts)
	q := c.MakeQueries(5, 2, 11)
	for _, query := range q {
		ra := a.Query(query.Tags, 10)
		rb := b.Query(query.Tags, 10)
		if len(ra) != len(rb) {
			t.Fatal("nondeterministic across builds")
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("nondeterministic across builds")
			}
		}
	}
}

func TestBuildProgressReportsEveryStage(t *testing.T) {
	var starts, finishes []Stage
	p, err := Build(context.Background(), paperDataset(), Options{
		Tucker:   tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1},
		Spectral: cluster.SpectralOptions{Sigma: 1, K: 2, Seed: 5},
		Progress: func(pr Progress) {
			if pr.Done {
				finishes = append(finishes, pr.Stage)
			} else {
				starts = append(starts, pr.Stage)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil pipeline")
	}
	want := []Stage{StageTensor, StageDecompose, StageEmbed, StageCluster, StageIndex}
	if len(starts) != len(want) || len(finishes) != len(want) {
		t.Fatalf("starts=%v finishes=%v, want all of %v", starts, finishes, want)
	}
	for i, s := range want {
		if starts[i] != s || finishes[i] != s {
			t.Fatalf("stage order: starts=%v finishes=%v", starts, finishes)
		}
	}
}

func TestBuildCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Build(ctx, paperDataset(), Options{
		Tucker:   tucker.Options{J1: 3, J2: 2, J3: 3, Seed: 1},
		Spectral: cluster.SpectralOptions{Sigma: 1, K: 2, Seed: 5},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatal("cancelled build must not return a pipeline")
	}
}

func TestBuildCancelMidALS(t *testing.T) {
	c := datagen.Generate(datagen.Tiny())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawDecompose bool
	p, err := Build(ctx, c.Clean, Options{
		Tucker:   tucker.Options{J1: 8, J2: 10, J3: 8, Seed: 2},
		Spectral: cluster.SpectralOptions{K: 12, Seed: 2},
		Progress: func(pr Progress) {
			// Cancel as the decompose stage starts: the ALS sweep's own
			// context checks must abort it.
			if pr.Stage == StageDecompose && !pr.Done {
				sawDecompose = true
				cancel()
			}
		},
	})
	if !sawDecompose {
		t.Fatal("decompose stage never started")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatal("cancelled build must not return a pipeline")
	}
}

func TestStageString(t *testing.T) {
	names := map[Stage]string{
		StageTensor:    "tensor",
		StageDecompose: "decompose",
		StageEmbed:     "embed",
		StageCluster:   "cluster",
		StageIndex:     "index",
	}
	if len(names) != NumStages {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(names))
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
