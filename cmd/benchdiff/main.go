// Command benchdiff gates CI on the BENCH_offline.json artifact written
// by cmd/benchoffline. It has two modes:
//
//	benchdiff compare -base base.json -head head.json [-threshold 0.25] [-min-ms 25]
//	    Compare the decompose/build/update/stream/ann/rerank timings
//	    of a PR's benchmark run against the merge-base run and fail (exit 1)
//	    when a tracked metric regresses by more than threshold AND by more
//	    than min-ms of absolute wall clock (the floor keeps sub-millisecond
//	    jitter on tiny CI presets from tripping the gate; ANN and rerank
//	    latency metrics carry their own 1ms floor since their p99s sit
//	    below the default). The ann section's recall@10 points and the
//	    rerank section's MAP/precision@10 points gate on an absolute drop
//	    beyond 0.01 instead — for them, lower is the regression — and the
//	    stream section's ingest_per_sec is a throughput: it regresses when
//	    the head rate falls below base·(1−threshold).
//
//	benchdiff sizecheck -in BENCH_offline.json [-min-tags 5000] [-min-ratio 10]
//	    Assert the v1/v2 model-size ratio of every size_scaling point at
//	    or beyond min-tags stays at least min-ratio — the codec win that
//	    PR 2 established, previously checked by an inline python heredoc
//	    in the workflow.
//
// Exit codes: 0 pass, 1 gate violated, 2 usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchFile mirrors the subset of cmd/benchoffline's report that the
// gates read. Unknown and missing fields are tolerated so the tool can
// compare against artifacts from older revisions.
type benchFile struct {
	Build struct {
		EmbeddingPath struct {
			DecomposeMS float64 `json:"decompose_ms"`
			TotalMS     float64 `json:"total_ms"`
		} `json:"embedding_path"`
	} `json:"build"`
	Decompose struct {
		Workers []struct {
			Workers int     `json:"workers"`
			Millis  float64 `json:"ms"`
		} `json:"workers"`
	} `json:"decompose"`
	Update struct {
		FullRebuildMS float64 `json:"full_rebuild_ms"`
		WarmApplyMS   float64 `json:"warm_apply_ms"`
	} `json:"update"`
	Stream struct {
		IngestPerSec     float64 `json:"ingest_per_sec"`
		FlushToVisibleMS float64 `json:"flush_to_visible_ms"`
	} `json:"stream"`
	Ann struct {
		Points []struct {
			Tags   int     `json:"tags"`
			P99    float64 `json:"p99_ms"`
			Recall float64 `json:"recall_at_10"`
		} `json:"tags"`
		Mmap struct {
			MappedLoadMS float64 `json:"mapped_load_ms"`
		} `json:"mmap"`
	} `json:"ann"`
	Rerank struct {
		Scales []struct {
			Tags   int `json:"tags"`
			Points []struct {
				Depth         int     `json:"depth"`
				MAP           float64 `json:"map"`
				PrecisionAt10 float64 `json:"precision_at_10"`
				P99           float64 `json:"p99_ms"`
			} `json:"depths"`
		} `json:"scales"`
	} `json:"rerank"`
	SizeScaling []struct {
		Tags  int     `json:"tags"`
		V1    int64   `json:"v1_bytes"`
		V2    int64   `json:"v2_bytes"`
		Ratio float64 `json:"v1_over_v2_ratio"`
	} `json:"size_scaling"`
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// metric is one tracked measurement, present when the producing
// revision recorded it. Most metrics are timings; recall marks a
// quality metric gated on an absolute drop instead (lower is worse, so
// the threshold/floor pair doesn't apply). floorMS, when set, replaces
// the CLI's -min-ms jitter floor for this metric: ANN latencies sit in
// single-digit milliseconds where the default 25ms floor would mask any
// regression.
type metric struct {
	name    string
	ms      float64
	ok      bool
	recall  bool
	floorMS float64
	// throughput marks a rate metric (higher is better): it regresses
	// when the head rate drops below base·(1−threshold). The millisecond
	// jitter floor has no meaning for a rate, so it doesn't apply.
	throughput bool
}

// timings extracts the gated metrics from a benchmark file. Metrics the
// revision didn't record (older formats) come back with ok=false and are
// skipped by the comparison rather than failing it.
func timings(b *benchFile) []metric {
	ms := []metric{
		{name: "build.embedding_path.decompose_ms", ms: b.Build.EmbeddingPath.DecomposeMS, ok: b.Build.EmbeddingPath.DecomposeMS > 0},
		{name: "build.embedding_path.total_ms", ms: b.Build.EmbeddingPath.TotalMS, ok: b.Build.EmbeddingPath.TotalMS > 0},
		{name: "update.full_rebuild_ms", ms: b.Update.FullRebuildMS, ok: b.Update.FullRebuildMS > 0},
		{name: "update.warm_apply_ms", ms: b.Update.WarmApplyMS, ok: b.Update.WarmApplyMS > 0},
	}
	for _, w := range b.Decompose.Workers {
		ms = append(ms, metric{
			name: fmt.Sprintf("decompose.workers[%d].ms", w.Workers),
			ms:   w.Millis,
			ok:   w.Millis > 0,
		})
	}
	if v := b.Stream.FlushToVisibleMS; v > 0 {
		ms = append(ms, metric{name: "stream.flush_to_visible_ms", ms: v, ok: true})
	}
	if v := b.Stream.IngestPerSec; v > 0 {
		ms = append(ms, metric{name: "stream.ingest_per_sec", ms: v, ok: true, throughput: true})
	}
	for _, p := range b.Ann.Points {
		ms = append(ms, metric{
			name:    fmt.Sprintf("ann.tags[%d].p99_ms", p.Tags),
			ms:      p.P99,
			ok:      p.P99 > 0,
			floorMS: 1,
		})
		ms = append(ms, metric{
			name:   fmt.Sprintf("ann.tags[%d].recall_at_10", p.Tags),
			ms:     p.Recall,
			ok:     p.Recall > 0,
			recall: true,
		})
	}
	if v := b.Ann.Mmap.MappedLoadMS; v > 0 {
		ms = append(ms, metric{name: "ann.mmap.mapped_load_ms", ms: v, ok: true, floorMS: 1})
	}
	// The rerank ladder's quality scores gate like recall (an absolute
	// drop beyond 0.01 is a quality bug regardless of threshold); its
	// per-depth p99s gate like the ANN latencies, with the same 1ms
	// jitter floor.
	for _, s := range b.Rerank.Scales {
		for _, p := range s.Points {
			ms = append(ms, metric{
				name:   fmt.Sprintf("rerank.tags[%d].depth[%d].map", s.Tags, p.Depth),
				ms:     p.MAP,
				ok:     p.MAP > 0,
				recall: true,
			})
			ms = append(ms, metric{
				name:   fmt.Sprintf("rerank.tags[%d].depth[%d].precision_at_10", s.Tags, p.Depth),
				ms:     p.PrecisionAt10,
				ok:     p.PrecisionAt10 > 0,
				recall: true,
			})
			ms = append(ms, metric{
				name:    fmt.Sprintf("rerank.tags[%d].depth[%d].p99_ms", s.Tags, p.Depth),
				ms:      p.P99,
				ok:      p.P99 > 0,
				floorMS: 1,
			})
		}
	}
	return ms
}

// row is one head metric matched (or not) against the baseline.
type row struct {
	name           string
	baseMS, headMS float64
	hasBase        bool
	recall         bool
	throughput     bool
	regressed      bool
}

// compare matches every head metric against the baseline and marks the
// ones that regressed by more than threshold (fractional, e.g. 0.25)
// AND more than the jitter floor of absolute wall clock (the metric's
// own floorMS when it declares one, the CLI's minMS otherwise). Recall
// metrics gate the other way: lower is worse, and an absolute drop
// beyond 0.01 regresses regardless of threshold — approximate serving
// that silently loses recall is a quality bug, not noise. Throughput
// metrics also gate downward, relatively: the head rate regresses when
// it falls below base·(1−threshold). Metrics absent from the baseline
// (older artifact formats, freshly added metrics) come back with
// hasBase=false and never regress.
func compare(base, head *benchFile, threshold, minMS float64) []row {
	baseline := make(map[string]float64)
	for _, m := range timings(base) {
		if m.ok {
			baseline[m.name] = m.ms
		}
	}
	var rows []row
	for _, m := range timings(head) {
		if !m.ok {
			continue
		}
		b, seen := baseline[m.name]
		var regressed bool
		switch {
		case m.recall:
			regressed = seen && b-m.ms > 0.01
		case m.throughput:
			regressed = seen && b-m.ms > threshold*b
		default:
			floor := minMS
			if m.floorMS > 0 {
				floor = m.floorMS
			}
			regressed = seen && m.ms-b > threshold*b && m.ms-b > floor
		}
		rows = append(rows, row{
			name: m.name, baseMS: b, headMS: m.ms, hasBase: seen,
			recall: m.recall, throughput: m.throughput, regressed: regressed,
		})
	}
	return rows
}

// regressions filters a comparison down to the rows that tripped the gate.
func regressions(rows []row) []row {
	var out []row
	for _, r := range rows {
		if r.regressed {
			out = append(out, r)
		}
	}
	return out
}

// sizeViolations returns the size_scaling points at or beyond minTags
// whose v1/v2 ratio dropped below minRatio.
func sizeViolations(b *benchFile, minTags int, minRatio float64) []string {
	var out []string
	for _, p := range b.SizeScaling {
		if p.Tags >= minTags && p.Ratio < minRatio {
			out = append(out, fmt.Sprintf("|T|=%d: v1/v2 ratio %.1fx below required %.1fx (v1=%d v2=%d)",
				p.Tags, p.Ratio, minRatio, p.V1, p.V2))
		}
	}
	return out
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("base", "", "baseline BENCH_offline.json (merge-base run)")
	headPath := fs.String("head", "", "candidate BENCH_offline.json (PR run)")
	threshold := fs.Float64("threshold", 0.25, "fractional regression that fails the gate")
	minMS := fs.Float64("min-ms", 25, "absolute regression floor in milliseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff compare: -base and -head are required")
		return 2
	}
	base, err := readBench(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}
	head, err := readBench(*headPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}

	rows := compare(base, head, *threshold, *minMS)
	for _, r := range rows {
		switch {
		case r.recall && r.hasBase:
			fmt.Printf("%-40s base %10.3f    head %10.3f  \n", r.name, r.baseMS, r.headMS)
		case r.recall:
			fmt.Printf("%-40s base          —  head %10.3f    (new metric)\n", r.name, r.headMS)
		case r.throughput && r.hasBase:
			fmt.Printf("%-40s base %10.0f/s  head %10.0f/s  (%+.1f%%)\n", r.name, r.baseMS, r.headMS, 100*(r.headMS-r.baseMS)/r.baseMS)
		case r.throughput:
			fmt.Printf("%-40s base          —  head %10.0f/s  (new metric)\n", r.name, r.headMS)
		case r.hasBase:
			fmt.Printf("%-40s base %10.1fms  head %10.1fms  (%+.1f%%)\n", r.name, r.baseMS, r.headMS, 100*(r.headMS-r.baseMS)/r.baseMS)
		default:
			fmt.Printf("%-40s base          —  head %10.1fms  (new metric)\n", r.name, r.headMS)
		}
	}

	regs := regressions(rows)
	if len(regs) == 0 {
		fmt.Printf("benchdiff: no regression beyond %.0f%% (+%.0fms floor)\n", *threshold*100, *minMS)
		return 0
	}
	for _, r := range regs {
		switch {
		case r.recall:
			fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.3f -> %.3f (recall dropped)\n",
				r.name, r.baseMS, r.headMS)
		case r.throughput:
			fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.0f/s -> %.0f/s (%+.1f%%)\n",
				r.name, r.baseMS, r.headMS, 100*(r.headMS-r.baseMS)/r.baseMS)
		default:
			fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.1fms -> %.1fms (%+.1f%%)\n",
				r.name, r.baseMS, r.headMS, 100*(r.headMS-r.baseMS)/r.baseMS)
		}
	}
	return 1
}

func runSizecheck(args []string) int {
	fs := flag.NewFlagSet("sizecheck", flag.ExitOnError)
	in := fs.String("in", "BENCH_offline.json", "benchmark artifact to check")
	minTags := fs.Int("min-tags", 5000, "apply the ratio floor at and beyond this tag count")
	minRatio := fs.Float64("min-ratio", 10, "required v1/v2 model-size ratio")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := readBench(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}
	for _, p := range b.SizeScaling {
		fmt.Printf("|T|=%d: v1=%d v2=%d ratio=%.1fx\n", p.Tags, p.V1, p.V2, p.Ratio)
	}
	violations := sizeViolations(b, *minTags, *minRatio)
	if len(violations) == 0 {
		fmt.Printf("benchdiff: v2 models stay >=%.1fx smaller at |T|>=%d\n", *minRatio, *minTags)
		return 0
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchdiff: %s\n", v)
	}
	return 1
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff compare|sizecheck [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "compare":
		os.Exit(runCompare(os.Args[2:]))
	case "sizecheck":
		os.Exit(runSizecheck(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown mode %q (want compare or sizecheck)\n", os.Args[1])
		os.Exit(2)
	}
}
