package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs the CLI, requires exit 0 and returns what it wrote to stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("datagen %v: exit %d; stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestRunFlagsAndExitCodes is the flag/exit-code table of the CLI: a
// usage error exits 2 and a write failure 1, each saying why on stderr
// and printing no corpus.
func TestRunFlagsAndExitCodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.tsv")
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // must appear on stderr
	}{
		{"out file", []string{"-preset", "tiny", "-out", out}, 0, "wrote " + out},
		{"unknown preset", []string{"-preset", "tags100k"}, 2, `datagen: unknown preset "tags100k"` + "\n"},
		{"unknown flag", []string{"-scale", "3"}, 2, "flag provided but not defined: -scale"},
		{"unwritable out", []string{"-out", filepath.Join(out, "x.tsv")}, 1, "datagen:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed to stdout:\n%.200s", stdout.String())
			}
			if tc.name == "unknown preset" && stderr.String() != tc.stderr {
				t.Fatalf("want the one line %q on stderr, got:\n%s", tc.stderr, stderr.String())
			}
		})
	}

	// -out writes the TSV that stdout carries without it.
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if tsv := runOK(t, "-preset", "tiny"); tsv == "" || tsv != string(written) {
		t.Fatalf("-out wrote %d bytes, stdout carried %d; want the same non-empty TSV", len(written), len(tsv))
	}
}

// TestListNamesEveryPreset: -list prints one line per accepted preset.
func TestListNamesEveryPreset(t *testing.T) {
	list := runOK(t, "-list")
	for _, name := range []string{"delicious", "bibsonomy", "lastfm", "tiny", "tags10k"} {
		if !strings.Contains(list, name+" ") {
			t.Errorf("-list does not name preset %q:\n%s", name, list)
		}
	}
	if got, want := strings.Count(list, "\n"), len(presets()); got != want {
		t.Errorf("-list printed %d lines for %d presets", got, want)
	}
}

// TestRunDeterministic: the same preset and seed give a byte-identical
// TSV, and -seed actually reaches the generator.
func TestRunDeterministic(t *testing.T) {
	a := runOK(t, "-preset", "tiny", "-seed", "11")
	if b := runOK(t, "-preset", "tiny", "-seed", "11"); a != b {
		t.Fatal("same -preset tiny -seed 11 twice: TSV differs")
	}
	if c := runOK(t, "-preset", "tiny", "-seed", "12"); a == c {
		t.Fatal("-seed 11 and -seed 12 gave the same TSV: the flag is ignored")
	}
}
