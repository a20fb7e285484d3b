// Command cubelsibench is the repository's benchmark: it compiles
// cmd/cubelsi and cmd/cubelsiserve from the checked-out tree, runs each
// workload's build → read → write phases against those real child
// processes, checks their outputs against an in-process oracle and
// datagen's ground truth, and prints every metric by name with its unit.
// See README.md in this directory.
//
//	go run -C bench repro/bench -workload wide_exact -seed 1            end-to-end metrics
//	go run -C bench repro/bench -workload wide_exact -seed 1 -trace 1   per-layer metrics + span file
//	go run -C bench repro/bench -selfcheck 3                            A/A spreads against the bounds
//	go run -C bench repro/bench -smoke                                  all workloads on the Tiny corpus
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// A run that never saw a quiet host prints no such line and exits 3.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(workloads), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seeds the sequence in which the clients send requests (corpus, delta and request pool belong to the workload)")
	seconds := flag.Float64("seconds", runSeconds, "length of the read phase's measurement, 30 windows of seconds/30 each; the benchmark's driver passes BENCHMARK.json's run_seconds, and numbers taken at another length are not comparable with it")
	trace := flag.Int("trace", 0, "1 runs the traced run: per-layer metrics and a span file, no end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run the workloads' serving configurations over the Tiny corpus with 3 short windows (harness self-test)")
	selfcheck := flag.Int("selfcheck", 0, "run every selected workload N times and compare each end-to-end metric's relative range with its bound")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Stdout, options{
		workload: *workloadName, seed: *seed, seconds: *seconds,
		trace: *trace == 1, smoke: *smoke, selfcheck: *selfcheck,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cubelsibench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	selfcheck int
}

func workloadNames(ws []workload) []string {
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	return names
}

// Exit codes of a run that did finish (a run that could not exits 2).
const (
	exitIncorrect = 1 // an output check failed, or -selfcheck found a range beyond its bound
	exitDisturbed = 3 // a phase never ran on a quiet host: no result line, no verdict
)

// run executes one invocation and returns the exit code: 0 when every
// run was correct and quiet (and, under -selfcheck, every range within
// its bound).
func run(ctx context.Context, out io.Writer, o options) (int, error) {
	all := workloads
	cfg := &config{
		gate: gateThreshold, windows: numWindows, epochs: numEpochs,
		windowLen: time.Duration(o.seconds / numWindows * float64(time.Second)),
		warmup:    time.Second, attempts: 2, maxWait: 10 * time.Second,
		tracePrefix: "trace_",
	}
	switch {
	case o.smoke:
		// The smoke run has its own shape, whatever -seconds says. It checks
		// the harness, not the host: every interval counts as quiet, so
		// nothing is replaced or retried.
		all = smokeWorkloads()
		cfg.windows, cfg.windowLen, cfg.warmup, cfg.attempts, cfg.maxWait = 3, 150*time.Millisecond, 100*time.Millisecond, 1, 0
		cfg.gate = 1
		cfg.tracePrefix = "trace_smoke_"
	case cfg.windowLen <= 0:
		return 0, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	case o.seconds != runSeconds:
		// Shorter windows hold fewer samples, so their best percentile
		// reads lower: the bounds and the A/A tables hold at runSeconds.
		fmt.Fprintf(out, "# -seconds %v is not BENCHMARK.json's run_seconds (%d): these numbers are not comparable with runs at that length\n", o.seconds, runSeconds)
	}
	selected := all
	if o.workload != "all" {
		w, ok := findWorkload(all, o.workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(all), ", "))
		}
		selected = []workload{w}
	}

	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	cfg.buildDir = filepath.Join(root, "bench", ".build")
	if cfg.bins, err = buildBinaries(ctx, root, cfg.buildDir); err != nil {
		return 0, err
	}

	if o.selfcheck > 0 {
		return selfCheck(ctx, out, cfg, selected, o)
	}
	runOne, specs := runEndToEnd, endToEnd
	if o.trace {
		runOne, specs = runTraced, perLayer
	}
	code := 0
	for _, w := range selected {
		r, err := runOne(ctx, cfg, w, o.seed)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		report(out, r, specs)
		switch {
		case !r.correct():
			code = exitIncorrect
		case len(r.disturbed) > 0 && code == 0:
			code = exitDisturbed
		}
	}
	return code, nil
}

// report prints one run: a line per metric (name, value, unit,
// evidence), the run's warnings, and last the result line. A disturbed
// run still shows its numbers to the reader, marked, but gets no result
// line: the line's keys are fixed by the benchmark contract and have no
// place for the mark, so anything that reads only the last line must
// not find numbers there.
func report(out io.Writer, r *result, specs []metricSpec) {
	fmt.Fprintf(out, "# %s  seed %d\n", r.workload, r.seed)
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-42s %14.6g %-5s", s.name, v, s.unit)
		if ev := r.evidence[s.name]; ev != "" {
			line += "  (" + ev + ")"
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	if v, ok := r.metrics["failed_share"]; ok {
		// An end-to-end run: failed_share travels as the result line's
		// counts, and the host.* metrics say whether to believe the rest.
		fmt.Fprintf(out, "%-42s %14.6g %-5s  (%d failed of %d attempted)\n", "failed_share", v, "ratio", r.failed, r.attempted)
		for _, name := range []string{"host.steal_share_max", "host.windows_discarded", "host.retries"} {
			fmt.Fprintf(out, "%-42s %14.6g\n", name, r.metrics[name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	if r.traceFile != "" {
		fmt.Fprintln(out, "# spans written to", r.traceFile)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "# INCORRECT:", p)
	}
	if len(r.disturbed) > 0 {
		fmt.Fprintf(out, "# DISTURBED: the %s phase never ran on a quiet host (max steal share %.3f, gate %.2f); the numbers above are not a measurement, no result line is printed, exit code %d\n",
			strings.Join(r.disturbed, ", "), r.metrics["host.steal_share_max"], gateThreshold, exitDisturbed)
		return
	}
	fmt.Fprintln(out, resultLine(r, specs))
}

// resultJSON is the machine-readable last line of a report.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(r *result, specs []metricSpec) string {
	line := resultJSON{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, s := range specs {
		if v, ok := r.metrics[s.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			line.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats, strings, ints
	}
	return string(data)
}

// selfCheck is the A/A tool: it runs every selected workload n times on
// the same tree and prints the five-number summary, the relative range
// and the relative interquartile distance of each end-to-end metric
// beside its bound. It exits non-zero when a range exceeds its bound, a
// run was incorrect, or the host was disturbed — a disturbed host yields
// no verdict, not numbers.
func selfCheck(ctx context.Context, out io.Writer, cfg *config, selected []workload, o options) (int, error) {
	code := 0
	for _, w := range selected {
		runs := make(map[string][]float64)
		var disturbed []string
		for i := range o.selfcheck {
			r, err := runEndToEnd(ctx, cfg, w, o.seed+int64(i))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Fprintf(out, "# %s run %d (seed %d):", w.name, i+1, r.seed)
			for _, s := range endToEnd {
				runs[s.name] = append(runs[s.name], r.metrics[s.name])
				fmt.Fprintf(out, " %s=%.5g", s.name, r.metrics[s.name])
			}
			fmt.Fprintln(out)
			if !r.correct() {
				code = exitIncorrect
				for _, p := range r.problems {
					fmt.Fprintf(out, "# %s run %d INCORRECT: %v\n", w.name, i+1, p)
				}
			}
			if len(r.disturbed) > 0 {
				disturbed = append(disturbed, fmt.Sprintf("run %d (%s)", i+1, strings.Join(r.disturbed, ", ")))
			}
		}
		fmt.Fprintf(out, "# selfcheck %s: %d runs, seeds %d..%d\n", w.name, o.selfcheck, o.seed, o.seed+int64(o.selfcheck)-1)
		if len(disturbed) > 0 {
			fmt.Fprintf(out, "# DISTURBED: %s never ran on a quiet host; no verdict\n", strings.Join(disturbed, "; "))
			if code == 0 {
				code = exitDisturbed
			}
			continue
		}
		fmt.Fprintf(out, "%-20s %-5s %10s %10s %10s %10s %10s %7s %7s %6s\n",
			"metric", "unit", "min", "q1", "median", "q3", "max", "range", "iqr", "bound")
		for _, s := range endToEnd {
			vs := append([]float64(nil), runs[s.name]...)
			sort.Float64s(vs)
			lo, hi, med := vs[0], vs[len(vs)-1], median(vs)
			q1, q3 := quartiles(vs)
			rng := (hi - lo) / med
			verdict := ""
			if rng > s.bound {
				verdict, code = "  EXCEEDS BOUND", exitIncorrect
			}
			fmt.Fprintf(out, "%-20s %-5s %10.5g %10.5g %10.5g %10.5g %10.5g %6.2f%% %6.2f%% %5.1f%%%s\n",
				s.name, s.unit, lo, q1, med, q3, hi, 100*rng, 100*(q3-q1)/med, 100*s.bound, verdict)
		}
	}
	return code, nil
}
