package cubelsi

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/tagging"
	"repro/internal/tucker"
)

// ErrInvalidOptions tags build-option validation failures: Build,
// NewIndex and Index.Apply return errors wrapping it when an option
// carries a value the pipeline cannot run with (a negative worker
// count).
var ErrInvalidOptions = errors.New("cubelsi: invalid options")

// Stage identifies one Figure-1 stage of the offline pipeline.
type Stage = core.Stage

// Pipeline stages, in execution order.
const (
	StageTensor    = core.StageTensor
	StageDecompose = core.StageDecompose
	StageEmbed     = core.StageEmbed
	StageCluster   = core.StageCluster
	StageIndex     = core.StageIndex
)

// Progress is one build-progress notification: each stage reports once
// at start (Done false) and once at finish (Done true, Elapsed set).
type Progress = core.Progress

// ProgressFunc observes build progress. It is called synchronously from
// the build goroutine and must not block.
type ProgressFunc = core.ProgressFunc

// Source supplies the raw assignment corpus to Build.
type Source interface {
	dataset() (*tagging.Dataset, error)
}

type readerSource struct{ r io.Reader }

func (s readerSource) dataset() (*tagging.Dataset, error) {
	ds, err := tagging.ReadTSV(s.r)
	if err != nil {
		return nil, fmt.Errorf("cubelsi: %w", err)
	}
	return ds, nil
}

// FromTSV sources tab-separated "user\ttag\tresource" lines from r.
func FromTSV(r io.Reader) Source { return readerSource{r: r} }

type fileSource struct{ path string }

func (s fileSource) dataset() (*tagging.Dataset, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("cubelsi: %w", err)
	}
	defer f.Close()
	return readerSource{r: f}.dataset()
}

// FromTSVFile sources a TSV corpus from a file path.
func FromTSVFile(path string) Source { return fileSource{path: path} }

type assignmentSource []Assignment

func (s assignmentSource) dataset() (*tagging.Dataset, error) {
	ds := tagging.NewDataset()
	for _, a := range s {
		if a.User == "" || a.Tag == "" || a.Resource == "" {
			return nil, fmt.Errorf("cubelsi: assignment with empty field: %+v", a)
		}
		ds.Add(a.User, a.Tag, a.Resource)
	}
	return ds, nil
}

// FromAssignments sources an in-memory assignment list.
func FromAssignments(assignments []Assignment) Source {
	return assignmentSource(assignments)
}

// FromDataset sources an already-constructed (but not yet cleaned)
// dataset. The dataset is not copied; do not mutate it during Build.
func FromDataset(ds *tagging.Dataset) Source {
	return datasetSource{ds: ds}
}

type datasetSource struct{ ds *tagging.Dataset }

func (s datasetSource) dataset() (*tagging.Dataset, error) { return s.ds, nil }

// BuildOption configures Build.
type BuildOption func(*buildSettings)

type buildSettings struct {
	cfg           Config
	progress      ProgressFunc
	tuckerWorkers int
	sketch        tucker.SketchOptions

	// prevModel warm-starts the initial NewIndex build.
	prevModel *Engine

	// err is the first option-validation failure; Build and NewIndex
	// surface it before touching the corpus.
	err error
}

// fail records the first option-validation error.
func (s *buildSettings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithConfig replaces the default pipeline configuration.
func WithConfig(cfg Config) BuildOption {
	return func(s *buildSettings) { s.cfg = cfg }
}

// WithProgress registers a per-stage progress observer.
func WithProgress(fn ProgressFunc) BuildOption {
	return func(s *buildSettings) { s.progress = fn }
}

// WithTuckerParallelism bounds the worker pool the ALS decomposition
// fans its unfolding products, Gram products and QR steps across.
// Zero (the default) uses one worker per logical CPU; 1 runs the sweep
// serially. Negative counts are rejected (the build returns an error
// wrapping ErrInvalidOptions) rather than silently clamped. The factors
// are bit-identical for every worker count, so this knob trades only
// wall-clock, never reproducibility.
func WithTuckerParallelism(workers int) BuildOption {
	return func(s *buildSettings) {
		if workers < 0 {
			s.fail(fmt.Errorf("%w: WithTuckerParallelism(%d): worker count must be non-negative", ErrInvalidOptions, workers))
			return
		}
		s.tuckerWorkers = workers
	}
}

// WithSketch switches the ALS sweep's leading-left SVDs of large
// unfoldings to a seeded randomized range finder (Halko–Martinsson–
// Tropp): sketch with oversample extra columns and refine with
// powerIters power iterations. Zero values pick the defaults (8 and 2).
// The sketched decomposition is still deterministic in the build seed
// but is a near-optimal approximation — prefer it for large corpora
// where the exact Gram products dominate the offline build; leave it
// off for paper-faithful reproduction runs.
func WithSketch(oversample, powerIters int) BuildOption {
	return func(s *buildSettings) {
		s.sketch = tucker.SketchOptions{
			Enabled:    true,
			Oversample: oversample,
			PowerIters: powerIters,
		}
	}
}

// WithPreviousModel warm-starts the initial NewIndex build from a
// previously built or loaded engine (for example yesterday's model file
// restored with LoadFile): the ALS sweep starts from the saved factor
// matrices instead of cold, and the engine's concept labels carry over
// for every tag that did not move. The engine must carry warm-start
// factors (any built engine, or a model saved in format v3; pre-v3
// loads without a decomposition cannot warm-start and make NewIndex
// fail). One-shot Build ignores it.
func WithPreviousModel(eng *Engine) BuildOption {
	return func(s *buildSettings) { s.prevModel = eng }
}

// Build runs the offline pipeline over the source corpus and returns a
// query-ready engine. The context is threaded through every stage —
// including each ALS mode update — so cancelling it aborts the build
// promptly with the context's error.
func Build(ctx context.Context, src Source, opts ...BuildOption) (*Engine, error) {
	settings := buildSettings{cfg: DefaultConfig()}
	for _, o := range opts {
		o(&settings)
	}
	if settings.err != nil {
		return nil, settings.err
	}
	eng, _, err := buildPipeline(ctx, src, settings)
	return eng, err
}

// cleanSource resolves and cleans the source corpus under the config's
// cleaning options.
func cleanSource(src Source, cfg Config) (*tagging.Dataset, error) {
	raw, err := src.dataset()
	if err != nil {
		return nil, err
	}
	return cleanDataset(raw, cfg)
}

func cleanDataset(raw *tagging.Dataset, cfg Config) (*tagging.Dataset, error) {
	// Validate here rather than in each caller: every build path (cold,
	// warm-started, incremental Apply) funnels through this clean, and
	// tucker.FromRatios panics on ratios below 1.
	for _, c := range cfg.ReductionRatios {
		if c < 1 {
			return nil, fmt.Errorf("cubelsi: reduction ratio %v < 1", c)
		}
	}
	ds := tagging.Clean(raw, tagging.CleanOptions{
		MinSupport:     cfg.MinSupport,
		DropSystemTags: cfg.DropSystemTags,
		Lowercase:      cfg.Lowercase,
	})
	if ds.Stats().Assignments == 0 {
		return nil, errors.New("cubelsi: no assignments survive cleaning; lower MinSupport or supply more data")
	}
	return ds, nil
}

// coreOptions maps the public configuration onto the pipeline options.
func coreOptions(settings buildSettings, st tagging.Stats) core.Options {
	cfg := settings.cfg
	j1, j2, j3 := tucker.FromRatios(st.Users, st.Tags, st.Resources,
		cfg.ReductionRatios[0], cfg.ReductionRatios[1], cfg.ReductionRatios[2])
	if cfg.CoreDims[0] > 0 {
		j1 = cfg.CoreDims[0]
	}
	if cfg.CoreDims[1] > 0 {
		j2 = cfg.CoreDims[1]
	}
	if cfg.CoreDims[2] > 0 {
		j3 = cfg.CoreDims[2]
	}
	return core.Options{
		Tucker: tucker.Options{
			J1: j1, J2: j2, J3: j3,
			MaxSweeps: cfg.MaxSweeps,
			Seed:      uint64(cfg.Seed),
			Workers:   settings.tuckerWorkers,
			Sketch:    settings.sketch,
		},
		Spectral: cluster.SpectralOptions{
			Sigma: cfg.Sigma,
			K:     cfg.Concepts,
			Seed:  cfg.Seed,
		},
		Progress: settings.progress,
	}
}

// buildPipeline is the shared cold-build path of Build and NewIndex: it
// cleans the source, runs the offline pipeline, and returns both the
// published engine and the pipeline it came from (the warm state future
// incremental updates start from).
func buildPipeline(ctx context.Context, src Source, settings buildSettings) (*Engine, *core.Pipeline, error) {
	ds, err := cleanSource(src, settings.cfg)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.Build(ctx, ds, coreOptions(settings, ds.Stats()))
	if err != nil {
		return nil, nil, fmt.Errorf("cubelsi: build: %w", err)
	}
	return engineFromPipeline(settings.cfg, p, 1), p, nil
}

// engineFromPipeline packages a built pipeline as a versioned immutable
// engine snapshot.
func engineFromPipeline(cfg Config, p *core.Pipeline, version uint64) *Engine {
	st := p.DS.Stats()
	cj1, cj2, cj3 := p.Decomposition.CoreDims()
	return &Engine{
		lowercase:   cfg.Lowercase,
		version:     version,
		fingerprint: fingerprintDataset(p.DS),
		warm:        &tucker.WarmStart{Y2: p.Decomposition.Y2, Y3: p.Decomposition.Y3},
		users:       p.DS.Users.Names(),
		tags:        p.DS.Tags,
		resources:   p.DS.Resources,
		emb:         p.Embedding,
		assign:      p.Assign,
		k:           p.K,
		index:       p.Index,
		userFactors: compactUserFactors(p.Decomposition, p.Assign, p.K),
		userlk:      &userLookup{},
		stats: Stats{
			Users: st.Users, Tags: st.Tags, Resources: st.Resources,
			Assignments:  st.Assignments,
			CoreDims:     [3]int{cj1, cj2, cj3},
			Concepts:     p.K,
			Fit:          p.Decomposition.Fit,
			Sweeps:       p.Decomposition.Sweeps,
			EmbeddingDim: p.Embedding.Dim(),
		},
		timings: p.Times,
	}
}

// fingerprintDataset hashes the cleaned corpus into a stable identity:
// SHA-256 over the name triples in sorted order, so the fingerprint is
// independent of id assignment and insertion order.
func fingerprintDataset(ds *tagging.Dataset) [32]byte {
	lines := make([]string, 0, len(ds.Assignments()))
	for _, a := range ds.Assignments() {
		lines = append(lines,
			ds.Users.Name(a.User)+"\x00"+ds.Tags.Name(a.Tag)+"\x00"+ds.Resources.Name(a.Resource))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
