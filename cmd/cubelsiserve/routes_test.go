package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// routeRE matches one "METHOD /path" route; a query string after the
// path is not part of the route.
var routeRE = regexp.MustCompile(`^(GET|POST|PUT|PATCH|DELETE|HEAD) +(/[^\s?]*)`)

// TestRoutesMatchOperationsManual is the tripwire for a route added or
// deleted without its docs: the HandleFunc routes registered anywhere in
// this package must be exactly the "### METHOD /path" headings of
// docs/OPERATIONS.md and the Endpoints block of the package doc.
func TestRoutesMatchOperationsManual(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]bool{}
	var pkgDoc string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			pkgDoc += f.Doc.Text()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || sel.Sel.Name != "HandleFunc" || !isLit || lit.Kind != token.STRING {
				return true
			}
			pattern, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			code[route(t, pattern)] = true
			return true
		})
	}

	manual, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(manual), "\n") {
		heading, ok := strings.CutPrefix(line, "### ")
		if !ok {
			continue
		}
		// "### GET /search, POST /search — ranked search"
		heading, _, _ = strings.Cut(heading, " — ")
		for _, r := range strings.Split(heading, ", ") {
			if routeRE.MatchString(r) {
				headings[route(t, r)] = true
			}
		}
	}

	endpoints := map[string]bool{}
	_, block, ok := strings.Cut(pkgDoc, "Endpoints:\n")
	if !ok {
		t.Fatal("package doc has no Endpoints: block")
	}
	for _, line := range strings.Split(strings.TrimLeft(block, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		endpoints[route(t, strings.TrimSpace(line))] = true
	}

	for _, doc := range []struct {
		name  string
		paths map[string]bool
	}{
		{"docs/OPERATIONS.md headings", headings},
		{"the package doc's Endpoints block", endpoints},
	} {
		for _, r := range sortedKeys(code) {
			if !doc.paths[r] {
				t.Errorf("route %q is registered but missing from %s", r, doc.name)
			}
		}
		for _, r := range sortedKeys(doc.paths) {
			if !code[r] {
				t.Errorf("%s documents %q, which no HandleFunc registers", doc.name, r)
			}
		}
	}
	if len(code) == 0 {
		t.Fatal("found no HandleFunc routes; the parser walk is stale")
	}
}

// route normalizes a "METHOD /path..." string to "METHOD /path".
func route(t *testing.T, s string) string {
	t.Helper()
	m := routeRE.FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("%q is not a METHOD /path route", s)
	}
	return m[1] + " " + m[2]
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
