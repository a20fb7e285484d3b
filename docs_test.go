package cubelsi

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A path token ending in cmd/<name>; only "cmd/x" and "./cmd/x" name
	// a command of this module (golang.org/x/vuln/cmd/govulncheck and
	// testdata trees do not).
	docCmdRE = regexp.MustCompile(`[\w./-]*\bcmd/[a-z0-9]+`)
	// `make <target>` in code: after a backtick or a workflow "run: ", or
	// alone on a line (a shell block), optionally with a trailing comment.
	// Prose such as "can never make a cold query worse" matches neither.
	docMakeInlineRE = regexp.MustCompile("(?:`|run: )make ([a-z][a-z0-9-]*)")
	docMakeLineRE   = regexp.MustCompile(`(?m)^\s*make ([a-z][a-z0-9-]*)\s*(?:#.*)?$`)
	makeTargetRE    = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// A path to a markdown document: README.md, docs/OPERATIONS.md,
	// .claude/skills/verify/SKILL.md.
	docPathRE = regexp.MustCompile(`\.?[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)
)

// checkedDocs returns the documents the docs tripwires read: README.md,
// docs/*.md, the verify skill and the CI workflow.
func checkedDocs(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("docs/*.md: %v, %v", docs, err)
	}
	return append(files, docs...)
}

// TestDocsNameOnlyExistingCommandsAndTargets is the tripwire for a
// command or Makefile target deleted without its doc edits: every
// cmd/<name> and `make <target>` that README.md, docs/*.md, the verify
// skill and the CI workflow mention must exist.
func TestDocsNameOnlyExistingCommandsAndTargets(t *testing.T) {
	files := checkedDocs(t)

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	var cmds, makes int
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, tok := range docCmdRE.FindAllString(text, -1) {
			dir := strings.TrimPrefix(tok, "./")
			if !strings.HasPrefix(dir, "cmd/") {
				continue
			}
			cmds++
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s mentions %s, which is not a directory", file, dir)
			}
		}
		mentions := append(docMakeInlineRE.FindAllStringSubmatch(text, -1),
			docMakeLineRE.FindAllStringSubmatch(text, -1)...)
		for _, m := range mentions {
			makes++
			if !targets[m[1]] {
				t.Errorf("%s mentions `make %s`, which is not a Makefile target", file, m[1])
			}
		}
	}
	// The patterns must keep matching something, or the test checks nothing.
	if cmds == 0 || makes == 0 {
		t.Fatalf("matched %d cmd/ mentions and %d make mentions; the patterns are stale", cmds, makes)
	}
}

// TestCitedDocumentsExist is the tripwire for a citation of a document
// the repository does not have: every *.md path named in a Go comment
// (outside bench/ and testdata/) or in the documents the test above
// checks must exist, relative to the repository root or to the citing
// file.
func TestCitedDocumentsExist(t *testing.T) {
	n := 0
	check := func(file, text string) {
		for _, path := range docPathRE.FindAllString(text, -1) {
			n++
			_, errRoot := os.Stat(path)
			_, errLocal := os.Stat(filepath.Join(filepath.Dir(file), path))
			if errRoot != nil && errLocal != nil {
				t.Errorf("%s cites %s, which does not exist", file, path)
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "bench" || d.Name() == "testdata" || d.Name() == ".git"):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			check(path, group.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range checkedDocs(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		check(file, string(raw))
	}
	if n == 0 {
		t.Fatal("matched no *.md citations; the pattern is stale")
	}
}
