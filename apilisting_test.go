package cubelsi

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurfaceMatchesAPIListing holds the package's exported
// surface to api/repro.txt, one sorted line per exported symbol in the
// style of the Go project's api/*.txt: an added, removed or re-typed
// func, method, type, field, const or var fails here until the listing
// is regenerated — so every change to the surface shows up as a diff of
// that file.
func TestExportedSurfaceMatchesAPIListing(t *testing.T) {
	got := apiListing(t)
	want, err := os.ReadFile(filepath.Join("api", "repro.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the exported surface differs from api/repro.txt; if the change is deliberate, replace the file with:\n%s", got)
	}
}

// apiListing renders the exported surface of the package's non-test
// files from their syntax alone (go/parser, go/doc, go/printer): types
// are printed as written, so an untyped const or var shows its value
// expression instead of an inferred type.
func apiListing(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	emit := func(format string, args ...any) {
		lines = append(lines, "pkg repro, "+fmt.Sprintf(format, args...))
	}
	src := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	// sig prints a signature without parameter names, as the Go api
	// files do.
	sig := func(ft *ast.FuncType) string {
		types := func(fl *ast.FieldList) []string {
			var out []string
			if fl == nil {
				return out
			}
			for _, f := range fl.List {
				for range max(len(f.Names), 1) {
					out = append(out, src(f.Type))
				}
			}
			return out
		}
		s := "(" + strings.Join(types(ft.Params), ", ") + ")"
		switch res := types(ft.Results); len(res) {
		case 0:
		case 1:
			s += " " + res[0]
		default:
			s += " (" + strings.Join(res, ", ") + ")"
		}
		return s
	}
	values := func(kind string, vals []*doc.Value) {
		for _, v := range vals {
			// A spec with neither type nor value repeats the previous
			// one's type (an iota run).
			var typ ast.Expr
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil || len(vs.Values) > 0 {
					typ = vs.Type
				}
				for i, n := range vs.Names {
					switch {
					case !n.IsExported():
					case typ != nil:
						emit("%s %s %s", kind, n.Name, src(typ))
					case i < len(vs.Values):
						emit("%s %s = %s", kind, n.Name, src(vs.Values[i]))
					default:
						emit("%s %s", kind, n.Name)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			if f.Recv != "" {
				emit("method (%s) %s%s", f.Recv, f.Name, sig(f.Decl.Type))
			} else {
				emit("func %s%s", f.Name, sig(f.Decl.Type))
			}
		}
	}

	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		var spec *ast.TypeSpec
		for _, s := range typ.Decl.Specs {
			if ts := s.(*ast.TypeSpec); ts.Name.Name == typ.Name {
				spec = ts
			}
		}
		switch st := spec.Type.(type) {
		case *ast.StructType:
			emit("type %s struct", typ.Name)
			for _, f := range st.Fields.List {
				if len(f.Names) == 0 {
					emit("type %s struct, embedded %s", typ.Name, src(f.Type))
				}
				for _, n := range f.Names {
					if n.IsExported() {
						emit("type %s struct, %s %s", typ.Name, n.Name, src(f.Type))
					}
				}
			}
		case *ast.InterfaceType:
			var methods []string
			unexported := false
			for _, m := range st.Methods.List {
				for _, n := range m.Names {
					if !n.IsExported() {
						unexported = true
						continue
					}
					methods = append(methods, n.Name)
					emit("type %s interface, %s%s", typ.Name, n.Name, sig(m.Type.(*ast.FuncType)))
				}
			}
			if len(methods) == 0 {
				emit("type %s interface {}", typ.Name)
			} else {
				emit("type %s interface { %s }", typ.Name, strings.Join(methods, ", "))
			}
			if unexported || st.Incomplete {
				emit("type %s interface, unexported methods", typ.Name)
			}
		default:
			if spec.Assign.IsValid() {
				emit("type %s = %s", typ.Name, src(spec.Type))
			} else {
				emit("type %s %s", typ.Name, src(spec.Type))
			}
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}
