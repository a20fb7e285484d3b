package cubelsi

import (
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
)

// TestDocsNameOnlyExistingCommandsAndTargets is the tripwire for a
// command or Makefile target deleted without its doc edits: every
// cmd/<name> and `make <target>` that README.md, docs/*.md, the verify
// skill and the CI workflow mention must exist.
func TestDocsNameOnlyExistingCommandsAndTargets(t *testing.T) {
	files := []string{"README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("docs/*.md: %v, %v", docs, err)
	}
	files = append(files, docs...)

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
