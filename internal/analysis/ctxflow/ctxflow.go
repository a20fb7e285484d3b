// Package ctxflow defines an Analyzer that enforces context threading
// in the packages that do real work on behalf of a caller.
//
// The build pipeline (internal/core, internal/tucker), the
// replication plane (internal/replicate) and the serving-side
// retrieval pipeline (internal/retrieve) are cancellation-safe end to
// end: a caller that abandons a build or a replica pull must be
// able to stop the goroutines and I/O spawned for it. That only holds
// if every exported entry point that does I/O or spawns goroutines
// accepts a context.Context and threads the caller's — an entry point
// that quietly roots itself with context.Background() detaches its
// subtree from cancellation and deadlines.
//
// Two checks, scoped by the -pkgs flag (comma-separated import-path
// suffixes; default covers the four packages above), in non-test
// files:
//
//   - an exported function or method whose body contains a go
//     statement or calls into net, net/http or the file-touching part
//     of os, but has no context.Context parameter, is reported;
//   - any call to context.Background or context.TODO is reported —
//     library code must use the context it was handed. Compatibility
//     shims that intentionally root a context carry a
//     //lint:ignore ctxflow directive with the justification.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces context.Context threading in the pipeline,
// replication and retrieval packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "report exported funcs that do I/O or spawn goroutines without accepting a context.Context, and context.Background/TODO in library code",
	Run:  run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"internal/core,internal/tucker,internal/replicate,internal/retrieve",
		"comma-separated import-path suffixes the invariant applies to")
}

// osIO is the subset of package os that performs file-system or
// process I/O worth cancelling; os.Getenv and friends are not it.
var osIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true,
	"MkdirAll": true, "Stat": true, "Lstat": true, "Symlink": true, "Link": true,
	"StartProcess": true, "Pipe": true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil || !analysis.PathMatchesAny(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRootedContexts(pass, fn)
			if !fn.Name.IsExported() || hasContextParam(pass, fn) {
				continue
			}
			if what := effectsWantingContext(pass, fn.Body); what != "" {
				pass.Reportf(fn.Name.Pos(), "exported %s %s but has no context.Context parameter; accept and thread the caller's context", fn.Name.Name, what)
			}
		}
	}
	return nil, nil
}

// checkRootedContexts reports context.Background()/TODO() calls
// anywhere in the function.
func checkRootedContexts(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if name := obj.Name(); name == "Background" || name == "TODO" {
			pass.Reportf(call.Pos(), "context.%s() roots a new context in library code, detaching it from the caller's cancellation; thread the caller's context", name)
		}
		return true
	})
}

// effectsWantingContext scans a function body for the effects that make
// a context parameter mandatory and describes the first one found.
func effectsWantingContext(pass *analysis.Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			found = "spawns goroutines"
			return false
		case *ast.CallExpr:
			if fn := calleeOf(pass, n); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "net", "net/http":
					found = "does network I/O (" + fn.Pkg().Name() + "." + fn.Name() + ")"
					return false
				case "os":
					if sig, isFunc := fn.Type().(*types.Signature); isFunc && sig.Recv() == nil && osIO[fn.Name()] {
						found = "does file I/O (os." + fn.Name() + ")"
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// hasContextParam reports whether the function can reach a caller
// context: a context.Context parameter, or an *http.Request parameter
// (whose Context() carries it — HTTP handlers cannot change their
// signature).
func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			continue
		}
		o := named.Obj()
		if o == nil || o.Pkg() == nil {
			continue
		}
		if o.Pkg().Path() == "context" && o.Name() == "Context" {
			return true
		}
		if o.Pkg().Path() == "net/http" && o.Name() == "Request" {
			return true
		}
	}
	return false
}

// calleeOf resolves the called function or method of a call expression.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
