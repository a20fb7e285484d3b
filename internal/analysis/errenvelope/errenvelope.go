// Package errenvelope defines an Analyzer that keeps HTTP error
// responses inside the shared JSON envelope.
//
// Every CubeLSI service speaks exactly one error shape —
// {"error": ...} with the right status, emitted by internal/httpx
// (WriteError, WriteBodyError, and the Mux that keeps even unmatched
// routes inside the envelope). Clients and the replication plane
// parse that shape; one handler that calls http.Error or writes a bare
// 4xx/5xx status line hands them a text/plain body their decoders
// choke on.
//
// In the packages named by -pkgs (default the service binary,
// cmd/cubelsiserve), non-test files must not:
//
//   - call net/http.Error — use httpx.WriteError;
//   - call WriteHeader with a constant status ≥ 400 — an error status
//     must carry the envelope body, so it flows through
//     httpx.WriteError / httpx.WriteBodyError too.
//
// WriteHeader with 2xx/3xx stays legal (streaming endpoints ack with
// bare 200s), as does a non-constant status that the surrounding code
// derives — the analyzer only rejects what it can prove is an error
// status.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer keeps service error responses inside internal/httpx.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc:  "report raw http.Error / WriteHeader(4xx|5xx) in service binaries; errors must use the internal/httpx JSON envelope",
	Run:  run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"cmd/cubelsiserve",
		"comma-separated import-path suffixes the envelope invariant applies to")
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil || !analysis.PathMatchesAny(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
				return true
			}
			switch fn.Name() {
			case "Error":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(call.Pos(), "http.Error writes a text/plain error outside the JSON envelope; use httpx.WriteError")
				}
			case "WriteHeader":
				if len(call.Args) != 1 {
					return true
				}
				if status, ok := constStatus(pass, call.Args[0]); ok && status >= 400 {
					pass.Reportf(call.Pos(), "WriteHeader(%d) emits an error status without the JSON envelope body; use httpx.WriteError", status)
				}
			}
			return true
		})
	}
	return nil, nil
}

// constStatus extracts a compile-time constant integer status.
func constStatus(pass *analysis.Pass, arg ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
