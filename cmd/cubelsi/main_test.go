package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/tagging"
)

// writeTinyCorpus writes the generated Tiny corpus as a TSV file.
func writeTinyCorpus(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "corpus.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tagging.WriteTSV(f, datagen.Generate(datagen.Tiny()).Raw); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFlagsAndExitCodes is the flag/exit-code table of the CLI: what
// the benchmark runs succeeds, a flag the invocation would ignore is a
// usage error (2) rather than silently dropped, and a value the library
// rejects is a failure (1) carrying the library's message.
func TestRunFlagsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	corpus := writeTinyCorpus(t, dir)
	model := filepath.Join(dir, "model.clsi")

	// The benchmark's build invocation, byte for byte.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-data", corpus, "-ratio", "8", "-save", model, "-save-user-factors"}, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark invocation: exit %d, stderr:\n%s", code, stderr.String())
	}
	eng, err := cubelsi.LoadFile(model)
	if err != nil {
		t.Fatalf("saved model does not load: %v", err)
	}
	if !eng.UserFactors() {
		t.Fatal("-save-user-factors: saved model carries no user factors")
	}

	type testCase struct {
		name string
		args []string
		code int
		frag string // must appear on stderr
	}
	cases := []testCase{
		{"load then query", []string{"-load", model, "-query", eng.Tags()[0]}, 0, "engine:"},
		{"no source", []string{"-query", "x"}, 2, "-data or -load is required"},
		{"nothing to do", []string{"-load", model}, 2, "nothing to do"},
		{"user factors without save", []string{"-data", corpus, "-ratio", "8", "-save-user-factors", "-clusters"}, 2, "-save-user-factors needs -save"},
		{"negative workers", []string{"-data", corpus, "-ratio", "8", "-workers", "-1", "-clusters"}, 1, "cubelsi: invalid options: WithTuckerParallelism(-1)"},
		{"removed -shards", []string{"-data", corpus, "-shards", "2", "-clusters"}, 2, "flag provided but not defined: -shards"},
		{"removed -workers-addr", []string{"-data", corpus, "-workers-addr", "x", "-clusters"}, 2, "flag provided but not defined: -workers-addr"},
	}
	// Every flag that only shapes a build is refused next to -load.
	for _, f := range [][]string{
		{"-data", corpus}, {"-update", corpus}, {"-warm-from", model},
		{"-ratio", "8"}, {"-concepts", "4"}, {"-min-support", "2"}, {"-seed", "3"},
		{"-workers", "1"}, {"-sketch"}, {"-sketch-oversample", "4"}, {"-sketch-power", "1"},
	} {
		cases = append(cases, testCase{
			"load with " + f[0], append([]string{"-load", model, "-clusters"}, f...),
			2, f[0] + " cannot be combined with -load",
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.frag) {
				t.Fatalf("stderr lacks %q:\n%s", tc.frag, stderr.String())
			}
			if tc.code != 0 && stdout.Len() != 0 {
				t.Fatalf("a rejected invocation printed results:\n%s", stdout.String())
			}
		})
	}
}
