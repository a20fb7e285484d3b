package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
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
		for _, r := range slices.Sorted(maps.Keys(code)) {
			if !doc.paths[r] {
				t.Errorf("route %q is registered but missing from %s", r, doc.name)
			}
		}
		for _, r := range slices.Sorted(maps.Keys(doc.paths)) {
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

// manualSection returns the lines of the docs/OPERATIONS.md section
// whose heading starts with heading, up to the next heading.
func manualSection(t *testing.T, heading string) []string {
	t.Helper()
	manual, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(manual), "\n"+heading)
	if !ok {
		t.Fatalf("docs/OPERATIONS.md has no %q section", heading)
	}
	body, _, _ = strings.Cut(body, "\n#")
	return strings.Split(body, "\n")[1:]
}

// docFlagRE matches a backticked flag such as `-addr` or `-spool dir`.
var docFlagRE = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")

// mainFlags returns every flag main.go registers through
// flag.<Type>("name", default, usage), with its default rendered as the
// manual writes it.
func mainFlags(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || types.ExprString(sel.X) != "flag" {
			return true
		}
		name, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
		switch def := call.Args[1].(type) {
		case *ast.BasicLit:
			flags[name] = def.Value
			if def.Kind == token.STRING {
				flags[name], _ = strconv.Unquote(def.Value)
			}
		case *ast.Ident: // true, false
			flags[name] = def.Name
		case *ast.BinaryExpr: // N*time.Second
			n, err := strconv.Atoi(def.X.(*ast.BasicLit).Value)
			if err != nil || def.Op != token.MUL || types.ExprString(def.Y) != "time.Second" {
				t.Fatalf("-%s: cannot render the default", name)
			}
			flags[name] = (time.Duration(n) * time.Second).String()
		default:
			t.Fatalf("-%s: cannot render a %T default", name, def)
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatal("found no flag registrations; the parser walk is stale")
	}
	return flags
}

// TestFlagsMatchOperationsManual is the tripwire for a flag added,
// renamed or re-defaulted without its docs: the flags main.go registers
// must be exactly the backticked -flags of the manual's cubelsiserve
// section (table rows and prose), and every row of a table with a
// Default column must name the flag's actual default.
func TestFlagsMatchOperationsManual(t *testing.T) {
	code := mainFlags(t)
	section := manualSection(t, "### cubelsiserve ")
	doc := map[string]bool{}
	for _, m := range docFlagRE.FindAllStringSubmatch(strings.Join(section, "\n"), -1) {
		doc[m[1]] = true
		if _, ok := code[m[1]]; !ok {
			t.Errorf("docs/OPERATIONS.md documents -%s, which main.go does not register", m[1])
		}
	}
	for name := range code {
		if !doc[name] {
			t.Errorf("-%s is registered but missing from docs/OPERATIONS.md", name)
		}
	}

	defaultCol := -1
	for _, line := range section {
		if !strings.HasPrefix(line, "|") {
			defaultCol = -1
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		m := docFlagRE.FindStringSubmatch(cells[0])
		switch {
		case cells[0] == "Flag":
			defaultCol = slices.Index(cells, "Default")
		case m != nil && defaultCol >= 0:
			if got := strings.Trim(cells[defaultCol], "`"); got != code[m[1]] {
				t.Errorf("docs/OPERATIONS.md gives -%s the default %q; main.go has %q", m[1], got, code[m[1]])
			}
		}
	}
}

// fillNonZero sets every field reachable from v to a non-zero value, so
// omitempty keys marshal too.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillNonZero(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.Array:
		for i := range v.Len() {
			fillNonZero(v.Index(i))
		}
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	default: // the numeric kinds
		v.Set(reflect.ValueOf(1).Convert(v.Type()))
	}
}

// jsonKeys adds every object key at every depth of a decoded JSON value.
func jsonKeys(v any, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			keys[k] = true
			jsonKeys(child, keys)
		}
	case []any:
		for _, child := range v {
			jsonKeys(child, keys)
		}
	}
}

// TestStatsKeysMatchOperationsManual is the tripwire for a /stats key
// added or renamed without its docs. A statsResponse with every field
// set — the stream section and the writer and replica fields of the
// replication section included — marshals keys that must each appear
// quoted or backticked in the manual's GET /stats section, and every
// "key": there must be one /stats really answers.
func TestStatsKeysMatchOperationsManual(t *testing.T) {
	var resp statsResponse
	fillNonZero(reflect.ValueOf(&resp).Elem())
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeys(tree, keys)

	section := strings.Join(manualSection(t, "### GET /stats"), "\n")
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		if !strings.Contains(section, `"`+k+`"`) && !strings.Contains(section, "`"+k+"`") {
			t.Errorf("/stats key %q is missing from the manual's GET /stats section", k)
		}
	}
	for _, m := range regexp.MustCompile(`"([a-z0-9_]+)":`).FindAllStringSubmatch(section, -1) {
		if !keys[m[1]] {
			t.Errorf("the manual's GET /stats section shows key %q, which /stats does not answer", m[1])
		}
	}
}
