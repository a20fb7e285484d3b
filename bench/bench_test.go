package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tagging"
)

// fingerprints identify the inputs — the workload's corpus and delta,
// the seed's request sequence — for the determinism tests.
func (in *inputs) fingerprints() (corpus, delta, requests string) {
	var tsv bytes.Buffer
	if err := tagging.WriteTSV(&tsv, in.corpus.Raw); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	h := sha256.New()
	for client := range numClients {
		s := in.stream(client)
		for range 1000 {
			h.Write(s.next().wire)
		}
	}
	sum := func(b []byte) string {
		d := sha256.Sum256(b)
		return hex.EncodeToString(d[:8])
	}
	return sum(tsv.Bytes()), sum(in.deltaNDJSON()), hex.EncodeToString(h.Sum(nil)[:8])
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload(smokeWorkloads(), "wide_exact")
	c1, d1, r1 := makeInputs(w, 7).fingerprints()
	c2, d2, r2 := makeInputs(w, 7).fingerprints()
	if c1 != c2 || d1 != d2 || r1 != r2 {
		t.Errorf("same seed, different inputs: corpus %s/%s delta %s/%s requests %s/%s", c1, c2, d1, d2, r1, r2)
	}
	c3, d3, r3 := makeInputs(w, 8).fingerprints()
	if r3 == r1 {
		t.Errorf("seeds 7 and 8 drew the same request sequence %s", r1)
	}
	// The corpus and the delta belong to the workload, not to the seed
	// (see workload).
	if c3 != c1 || d3 != d1 {
		t.Errorf("the corpus (%s/%s) or the delta (%s/%s) moved with the seed", c1, c3, d1, d3)
	}
	other, _ := findWorkload(smokeWorkloads(), "deep_core")
	other.corpus.Seed++
	if c4, d4, _ := makeInputs(other, 7).fingerprints(); c4 == c1 || d4 == d1 {
		t.Errorf("another corpus seed gave the same corpus (%s) or delta (%s)", c4, d4)
	}
}

func TestDeltaAndBasePartitionTheCorpus(t *testing.T) {
	w, _ := findWorkload(smokeWorkloads(), "deep_core")
	in := makeInputs(w, 3)
	raw := len(in.corpus.Raw.Assignments())
	if got := len(in.base.Assignments()) + len(in.delta); got != raw {
		t.Errorf("base %d + delta %d = %d assignments, the corpus has %d", len(in.base.Assignments()), len(in.delta), got, raw)
	}
	if want := max(raw/100, 1); len(in.delta) != want {
		t.Errorf("delta holds %d records, want 1 %% = %d", len(in.delta), want)
	}
	for _, rec := range in.delta {
		in.base.Add(rec.User, rec.Tag, rec.Resource)
	}
	if got := len(in.base.Assignments()); got != raw {
		t.Errorf("base ∪ delta has %d assignments, the corpus %d: the delta overlaps the base", got, raw)
	}
}

func TestRequestMix(t *testing.T) {
	w, _ := findWorkload(smokeWorkloads(), "wide_sublinear")
	s := makeInputs(w, 1).stream(0)
	var n [numClasses]int
	const draws = 20000
	for range draws {
		n[s.next().class]++
	}
	for class, want := range [numClasses]float64{0.5, 0.2, 0.2, 0.1} {
		if got := float64(n[class]) / draws; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s is %.3f of the requests, want %.2f", classNames[class], got, want)
		}
	}
}

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestNamesWhatTheBenchmarkPrints(t *testing.T) {
	m := readManifest(t)
	if got := strings.Join(m.Command, " "); got != "go run -C bench repro/bench" {
		t.Errorf("command = %q", got)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v", m.Paths)
	}
	// The driver passes run_seconds as -seconds; the flag's default, the
	// bounds and the README's A/A tables all belong to that one length.
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d in BENCHMARK.json, the benchmark's -seconds defaults to %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the benchmark %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, s.name, s.unit, s.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != s.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json differs from %v", kind, s.name, s.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, s.name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

// The result line's keys are fixed by the benchmark contract and cannot
// carry a "disturbed" mark, so a disturbed run must leave no result line
// for a machine to read as healthy.
func TestDisturbedRunPrintsNoResultLine(t *testing.T) {
	w := workloads[0]
	r := newResult(w, 1)
	r.attempted = 10
	for _, s := range endToEnd {
		r.metrics[s.name] = 1
	}
	r.metrics["failed_share"], r.metrics["host.steal_share_max"] = 0, 0.7

	var quiet bytes.Buffer
	report(&quiet, r, endToEnd)
	if lines := resultLines(t, quiet.String()); len(lines) != 1 || !lines[0].Correct || len(lines[0].Metrics) != len(endToEnd) {
		t.Fatalf("quiet run: result lines %+v\n%s", lines, quiet.String())
	}

	r.disturbed = []string{"build", "read"}
	var out bytes.Buffer
	report(&out, r, endToEnd)
	if lines := resultLines(t, out.String()); len(lines) != 0 {
		t.Errorf("disturbed run printed a result line:\n%s", out.String())
	}
	last := strings.TrimSpace(out.String())
	last = last[strings.LastIndex(last, "\n")+1:]
	if !strings.HasPrefix(last, "# DISTURBED: the build, read phase") || !strings.Contains(last, "0.700") {
		t.Errorf("last line of a disturbed report = %q", last)
	}
	// The numbers stay visible to a reader, above the mark.
	if !strings.Contains(out.String(), "search_p50_ms") {
		t.Errorf("disturbed report dropped the metric lines:\n%s", out.String())
	}
}

// resultLines parses the JSON result lines out of a report.
func resultLines(t *testing.T, out string) []resultJSON {
	t.Helper()
	var lines []resultJSON
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r resultJSON
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		lines = append(lines, r)
	}
	return lines
}

// TestSmoke drives the whole harness — real child processes, the oracle,
// the closed loop, the write path, the traced run — over the Tiny
// corpus, and holds the printed metric set to the declared one, name
// for name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, mode := range []struct {
		name  string
		trace bool
		specs []metricSpec
	}{{"end to end", false, endToEnd}, {"traced", true, perLayer}} {
		var out bytes.Buffer
		start := time.Now()
		code, err := run(ctx, &out, options{workload: "all", seed: 1, smoke: true, trace: mode.trace})
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode.name, err, out.String())
		}
		if code != 0 {
			t.Errorf("%s: exit code %d\n%s", mode.name, code, out.String())
		}
		t.Logf("%s smoke over %d workloads took %v", mode.name, len(workloads), time.Since(start).Round(time.Millisecond))
		lines := resultLines(t, out.String())
		if len(lines) != len(workloads) {
			t.Fatalf("%s: %d result lines, want one per workload\n%s", mode.name, len(lines), out.String())
		}
		for i, line := range lines {
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s %s: correct %v, %d failed of %d", mode.name, workloads[i].name, line.Correct, line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(mode.specs) {
				t.Errorf("%s %s: %d metrics printed, %d declared", mode.name, workloads[i].name, len(line.Metrics), len(mode.specs))
			}
			for _, s := range mode.specs {
				got, ok := line.Metrics[s.name]
				if !ok {
					t.Errorf("%s %s: declared metric %s was not printed", mode.name, workloads[i].name, s.name)
				} else if got.Unit != s.unit {
					t.Errorf("%s %s: %s printed in %q, declared in %q", mode.name, workloads[i].name, s.name, got.Unit, s.unit)
				}
			}
		}
		if !mode.trace {
			continue
		}
		for _, w := range workloads {
			data, err := os.ReadFile(filepath.Join(".build", "trace_smoke_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			if err := json.Unmarshal(data, &tr.spans); err != nil {
				t.Fatal(err)
			}
			cov := tr.coverage()
			if cov["build"] < 0.95 || cov["build"] > 1 {
				t.Errorf("%s: the stage spans cover %.3f of the build root, want within 5 %%", w.name, cov["build"])
			}
			if cov["query"] <= 0 || cov["query"] > 1 {
				t.Errorf("%s: query span coverage %.3f", w.name, cov["query"])
			}
		}
	}
}
