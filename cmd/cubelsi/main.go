// Command cubelsi builds a CubeLSI search engine over a TSV corpus of
// (user, tag, resource) assignments, answers tag queries, and saves
// models for cmd/cubelsiserve to serve.
//
// Usage:
//
//	cubelsi -data corpus.tsv -query "jazz,saxophone" [-n 10]
//	cubelsi -data corpus.tsv -related jazz
//	cubelsi -data corpus.tsv -clusters
//	cubelsi -data corpus.tsv -save model.clsi      # offline build
//	cubelsi -load model.clsi -query "jazz"         # serve a saved model
//	cubelsi -load old.model -save new.model        # upgrade v1–v4 → v5 format
//	cubelsi -data corpus.tsv -update delta.tsv -save model.clsi
//	                                               # incremental: warm-start rebuild
//
// -update applies an assignment delta after the initial build through
// the incremental Index lifecycle: lines of "user\ttag\tresource" are
// added, lines prefixed with "-\t" are removed, and the rebuild
// warm-starts from the initial factors (the update report — sweeps,
// moved/re-clustered tags, timings — prints to stderr). Combined with
// -warm-from model.clsi the initial build itself warm-starts from a
// previously saved model.
//
// The offline build is cancellable with SIGINT/SIGTERM and, with
// -progress, reports each Figure-1 stage as it runs.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildOnlyFlags are the flags that shape an offline build and so mean
// nothing next to -load, which serves a model that is already built.
var buildOnlyFlags = map[string]bool{
	"data": true, "update": true, "warm-from": true,
	"ratio": true, "concepts": true, "min-support": true, "seed": true,
	"workers": true, "sketch": true, "sketch-oversample": true, "sketch-power": true,
}

// run is main with its arguments, streams and exit code made explicit:
// 0 on success, 1 when the build, load, save or query fails, 2 on a
// usage error (unknown flag, conflicting flags, nothing to do).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cubelsi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	data := fs.String("data", "", "TSV corpus path (user\\ttag\\tresource)")
	load := fs.String("load", "", "load a saved model instead of building from -data")
	save := fs.String("save", "", "save the built model to this path")
	query := fs.String("query", "", "comma-separated query tags")
	related := fs.String("related", "", "print tags nearest to this tag")
	clusters := fs.Bool("clusters", false, "print the distilled concepts")
	topN := fs.Int("n", 10, "number of results")
	minScore := fs.Float64("min-score", 0, "drop results scoring below this")
	concepts := fs.Int("concepts", 0, "concept count (0 = automatic)")
	ratio := fs.Float64("ratio", 50, "Tucker reduction ratio c1=c2=c3")
	minSupport := fs.Int("min-support", 5, "cleaning support threshold")
	seed := fs.Int64("seed", 1, "random seed")
	progress := fs.Bool("progress", false, "report pipeline stages on stderr")
	workers := fs.Int("workers", 0, "ALS worker pool bound (0 = all CPUs, 1 = serial; factors are identical at any value)")
	sketch := fs.Bool("sketch", false, "use the randomized range finder for large-mode SVDs (faster, near-optimal fit)")
	sketchOversample := fs.Int("sketch-oversample", 0, "extra sketch columns beyond the core dimension (0 = default 8; implies -sketch)")
	sketchPower := fs.Int("sketch-power", 0, "sketch power-iteration rounds (0 = default 2; implies -sketch)")
	update := fs.String("update", "", "delta TSV to apply incrementally after the build (lines add, '-\\t'-prefixed lines remove; requires -data)")
	warmFrom := fs.String("warm-from", "", "previously saved model to warm-start the initial build from (requires -data)")
	saveUserFactors := fs.Bool("save-user-factors", false, "persist the compacted user-mode factors with -save (codec v5 section; enables personalized WithUser/?user= queries from the saved model)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cubelsi: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "cubelsi: %v\n", err)
		return 1
	}

	if *load != "" {
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			if conflict == "" && buildOnlyFlags[f.Name] {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return usage("-%s cannot be combined with -load: it shapes a build, and -load reads a model that is already built", conflict)
		}
	}
	if *saveUserFactors && *save == "" {
		return usage("-save-user-factors needs -save")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bf := buildFlags{
		ratio: *ratio, concepts: *concepts, minSupport: *minSupport,
		seed: *seed, progress: *progress, stderr: stderr,
		workers: *workers,
		// Tuning a sketch parameter is asking for the sketch.
		sketch:           *sketch || *sketchOversample != 0 || *sketchPower != 0,
		sketchOversample: *sketchOversample, sketchPower: *sketchPower,
		warmFrom: *warmFrom,
	}

	var eng *cubelsi.Engine
	var err error
	switch {
	case *load != "":
		eng, err = cubelsi.LoadFile(*load)
	case *data != "" && *update != "":
		eng, err = buildAndUpdate(ctx, *data, *update, bf)
	case *data != "":
		eng, err = buildEngine(ctx, *data, bf)
	default:
		fmt.Fprintln(stderr, "cubelsi: -data or -load is required")
		fs.Usage()
		return 2
	}
	if err != nil {
		return fail(err)
	}

	st := eng.Stats()
	fmt.Fprintf(stderr, "engine: %d users, %d tags, %d resources, %d assignments; core %v; %d concepts; fit %.3f\n",
		st.Users, st.Tags, st.Resources, st.Assignments, st.CoreDims, st.Concepts, st.Fit)

	if *save != "" {
		var saveOpts []cubelsi.SaveOption
		if *saveUserFactors {
			saveOpts = append(saveOpts, cubelsi.WithUserFactors())
		}
		if err := eng.SaveFile(*save, saveOpts...); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "model saved to %s\n", *save)
	}

	switch {
	case *query != "":
		q := cubelsi.NewQuery(splitTags(*query),
			cubelsi.WithLimit(*topN), cubelsi.WithMinScore(*minScore))
		for i, r := range eng.Query(q) {
			fmt.Fprintf(stdout, "%2d. %-30s %.4f\n", i+1, r.Resource, r.Score)
		}
	case *related != "":
		rel, err := eng.RelatedTags(*related, *topN)
		if err != nil {
			return fail(err)
		}
		for i, r := range rel {
			fmt.Fprintf(stdout, "%2d. %-24s D̂=%.4f\n", i+1, r.Tag, r.Distance)
		}
	case *clusters:
		for i, tags := range eng.Clusters() {
			fmt.Fprintf(stdout, "concept %3d: %s\n", i, strings.Join(tags, ", "))
		}
	default:
		if *save == "" {
			return usage("nothing to do; pass -query, -related, -clusters or -save")
		}
	}
	return 0
}

type buildFlags struct {
	ratio            float64
	concepts         int
	minSupport       int
	seed             int64
	progress         bool
	stderr           io.Writer // stage and update reports go here
	workers          int
	sketch           bool
	sketchOversample int
	sketchPower      int
	warmFrom         string
}

func (bf buildFlags) options() ([]cubelsi.BuildOption, error) {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{bf.ratio, bf.ratio, bf.ratio}
	cfg.Concepts = bf.concepts
	cfg.MinSupport = bf.minSupport
	cfg.Seed = bf.seed

	opts := []cubelsi.BuildOption{cubelsi.WithConfig(cfg)}
	// Negative values flow into the options so the build fails up front
	// with the library's wrapped ErrInvalidOptions instead of being
	// silently clamped here.
	if bf.workers != 0 {
		opts = append(opts, cubelsi.WithTuckerParallelism(bf.workers))
	}
	if bf.sketch {
		opts = append(opts, cubelsi.WithSketch(bf.sketchOversample, bf.sketchPower))
	}
	if bf.warmFrom != "" {
		prev, err := cubelsi.LoadFile(bf.warmFrom)
		if err != nil {
			return nil, fmt.Errorf("warm-from: %w", err)
		}
		opts = append(opts, cubelsi.WithPreviousModel(prev))
	}
	if bf.progress {
		opts = append(opts, cubelsi.WithProgress(func(p cubelsi.Progress) {
			if p.Done {
				fmt.Fprintf(bf.stderr, "stage %-10s done in %v\n", p.Stage, p.Elapsed)
			} else {
				fmt.Fprintf(bf.stderr, "stage %-10s ...\n", p.Stage)
			}
		}))
	}
	return opts, nil
}

func buildEngine(ctx context.Context, data string, bf buildFlags) (*cubelsi.Engine, error) {
	opts, err := bf.options()
	if err != nil {
		return nil, err
	}
	if bf.warmFrom != "" {
		// A warm start runs through the Index lifecycle even one-shot.
		idx, err := cubelsi.NewIndex(ctx, cubelsi.FromTSVFile(data), opts...)
		if err != nil {
			return nil, err
		}
		return idx.Snapshot(), nil
	}
	return cubelsi.Build(ctx, cubelsi.FromTSVFile(data), opts...)
}

// buildAndUpdate builds the index over the corpus, applies the delta
// file through the warm-started incremental path, and returns the
// published snapshot.
func buildAndUpdate(ctx context.Context, data, update string, bf buildFlags) (*cubelsi.Engine, error) {
	opts, err := bf.options()
	if err != nil {
		return nil, err
	}
	idx, err := cubelsi.NewIndex(ctx, cubelsi.FromTSVFile(data), opts...)
	if err != nil {
		return nil, err
	}
	delta, err := readDeltaTSV(update)
	if err != nil {
		return nil, err
	}
	rep, err := idx.Apply(ctx, delta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(bf.stderr,
		"update: v%d  +%d/-%d assignments  %d sweeps (fit %.3f)  %d new / %d moved / %d re-clustered tags (full=%v)  %.1fms total (decompose %.1fms)\n",
		rep.Version, rep.AddedAssignments, rep.RemovedAssignments, rep.Sweeps, rep.Fit,
		rep.NewTags, rep.MovedTags, rep.ReclusteredTags, rep.FullRecluster, rep.TotalMS, rep.DecomposeMS)
	return idx.Snapshot(), nil
}

// readDeltaTSV parses a delta file: "user\ttag\tresource" lines are
// additions, lines prefixed with "-\t" are removals, blank lines and
// #-comments are skipped.
func readDeltaTSV(path string) (cubelsi.Delta, error) {
	var d cubelsi.Delta
	f, err := os.Open(path)
	if err != nil {
		return d, fmt.Errorf("delta: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		remove := false
		if rest, ok := strings.CutPrefix(text, "-\t"); ok {
			remove = true
			text = rest
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 3 {
			return d, fmt.Errorf("delta line %d: want 3 tab-separated fields, got %d", line, len(fields))
		}
		a := cubelsi.Assignment{User: fields[0], Tag: fields[1], Resource: fields[2]}
		if remove {
			d.Remove = append(d.Remove, a)
		} else {
			d.Add = append(d.Add, a)
		}
	}
	if err := sc.Err(); err != nil {
		return d, fmt.Errorf("delta: %w", err)
	}
	return d, nil
}

func splitTags(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
