// Command datagen generates synthetic social-tagging corpora (the
// paper-analogue Delicious/Bibsonomy/Last.fm presets or a custom shape)
// as TSV files of (user, tag, resource) assignments.
//
// Usage:
//
//	datagen -preset delicious -out delicious.tsv [-raw]
//	datagen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/datagen"
	"repro/internal/tagging"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// presets lists every corpus -preset accepts, in the order -list prints
// them: the three paper analogues, the test-sized one, and the
// 10⁴-tag scale corpus.
func presets() []datagen.Params {
	return append(datagen.Presets(), datagen.Tiny(), datagen.Tags10K())
}

// run is main with its arguments, streams and exit code made explicit
// (0 ok, 1 write failure, 2 usage error) so a test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "tiny", "corpus preset: delicious, bibsonomy, lastfm, tiny, tags10k")
	out := fs.String("out", "", "output TSV path (default stdout)")
	raw := fs.Bool("raw", false, "emit the raw (uncleaned) corpus instead of the cleaned one")
	list := fs.Bool("list", false, "list presets and their shapes, then exit")
	seed := fs.Int64("seed", 0, "override the preset's seed (0 keeps the default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, p := range presets() {
			fmt.Fprintf(stdout, "%-10s users=%d resources=%d assignments=%d concepts=%d vocab≈%d\n",
				p.Name, p.Users, p.Resources, p.Assignments, p.NumConcepts(),
				p.NumConcepts()*p.WordsPerConcept)
		}
		return 0
	}

	var params datagen.Params
	for _, p := range presets() {
		if p.Name == *preset {
			params = p
			break
		}
	}
	if params.Name == "" {
		fmt.Fprintf(stderr, "datagen: unknown preset %q\n", *preset)
		return 2
	}
	if *seed != 0 {
		params.Seed = *seed
	}

	corpus := datagen.Generate(params)
	ds := corpus.Clean
	if *raw {
		ds = corpus.Raw
	}
	if *out == "" {
		if err := tagging.WriteTSV(stdout, ds); err != nil {
			fmt.Fprintf(stderr, "datagen: %v\n", err)
			return 1
		}
		return 0
	}
	if err := tagging.SaveFile(*out, ds); err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s: %v\n", *out, ds.Stats())
	return 0
}
