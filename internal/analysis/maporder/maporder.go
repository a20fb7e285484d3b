// Package maporder defines an Analyzer that reports `range` loops over
// maps whose bodies feed order-sensitive state.
//
// The whole offline pipeline promises bit-identical output at any
// worker count (golden factor hashes since PR 3, byte-identical model
// files across worker counts and across the replicated fleet). Go
// randomizes map iteration order per run, so a map range that appends
// to a slice, accumulates floating point, or writes bytes is exactly
// the bug class those golden tests catch only after the fact — and only
// on corpora they cover. This analyzer rejects the pattern at vet time.
//
// Flagged inside the body of a `for ... range m` where m is a map, in
// non-test files:
//
//   - append to a slice declared outside the loop (element order then
//     depends on map order), unless the very same block sorts that
//     slice after the loop — the collect-keys-then-sort idiom
//     establishes its own order;
//   - compound accumulation (+=, -=, *=, /=) into a float, complex or
//     string variable declared outside the loop: float addition is not
//     associative, so the last ulps depend on visit order, and string
//     concatenation is order-sensitive outright;
//   - byte/output emission: calls to fmt.Print/Printf/Println,
//     fmt.Fprint*, or Write/WriteString/WriteByte/WriteRune methods on
//     values declared outside the loop.
//
// Integer accumulation and plain assignment (min/max selection with a
// deterministic tiebreak) are deliberately not flagged: both are
// order-independent.
//
// Suppress a deliberate use with a justified directive:
//
//	//lint:ignore maporder adjacency lists are sorted immediately after
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags order-sensitive consumption of map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "report range-over-map loops that feed order-sensitive state (appends, float accumulation, output)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || pass.InTestFile(rng.Pos()) {
			return true
		}
		if _, ok := typeOf(pass, rng.X).Underlying().(*types.Map); !ok {
			return true
		}
		checkBody(pass, rng, stack)
		return true
	})
	return nil, nil
}

// checkBody walks one map-range body looking for order-sensitive sinks.
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, rngStack []ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range gets its own visit from run; its body
			// is that loop's responsibility.
			if _, ok := typeOf(pass, n.X).Underlying().(*types.Map); ok && n != rng {
				return false
			}
		case *ast.AssignStmt:
			checkAssign(pass, rng, rngStack, n)
		case *ast.CallExpr:
			checkEmit(pass, rng, n)
		}
		return true
	})
}

// checkAssign flags appends into outer slices and compound float or
// string accumulation into outer variables.
func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, rngStack []ast.Node, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN:
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
				continue
			}
			root := rootIdent(call.Args[0])
			if root == nil || !declaredOutside(pass, root, rng) {
				continue
			}
			if sortedAfterLoop(pass, rng, rngStack, root) {
				continue
			}
			pass.Reportf(call.Pos(), "append to %q inside range over map: element order depends on map iteration; iterate sorted keys instead", root.Name)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			root := rootIdent(lhs)
			if root == nil || !declaredOutside(pass, root, rng) {
				continue
			}
			b, ok := typeOf(pass, lhs).Underlying().(*types.Basic)
			if !ok {
				continue
			}
			switch {
			case b.Info()&types.IsFloat != 0, b.Info()&types.IsComplex != 0:
				pass.Reportf(as.Pos(), "floating-point accumulation into %q inside range over map is not associative: the result depends on map iteration order; iterate sorted keys", root.Name)
			case b.Info()&types.IsString != 0 && as.Tok == token.ADD_ASSIGN:
				pass.Reportf(as.Pos(), "string concatenation into %q inside range over map depends on map iteration order; iterate sorted keys", root.Name)
			}
		}
	}
}

// checkEmit flags output written during map iteration: fmt printing and
// Write*-method calls on outer values.
func checkEmit(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if obj := calleeFunc(pass, sel.Sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		switch obj.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			pass.Reportf(call.Pos(), "fmt.%s inside range over map emits output in map iteration order; iterate sorted keys", obj.Name())
		}
		return
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if root := rootIdent(sel.X); root != nil && declaredOutside(pass, root, rng) {
			if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
				pass.Reportf(call.Pos(), "%s.%s inside range over map writes bytes in map iteration order; iterate sorted keys", root.Name, sel.Sel.Name)
			}
		}
	}
}

// sortedAfterLoop reports whether a statement after rng in the same
// enclosing block sorts the collected slice — the canonical
// keys-then-sort idiom, which establishes its own deterministic order.
func sortedAfterLoop(pass *analysis.Pass, rng *ast.RangeStmt, rngStack []ast.Node, slice *ast.Ident) bool {
	block, ok := analysis.Parent(rngStack, 1).(*ast.BlockStmt)
	if !ok {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		expr, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := expr.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(pass, sel.Sel)
		if fn == nil || fn.Pkg() == nil {
			continue
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			continue
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && pass.TypesInfo.Uses[root] == pass.TypesInfo.Uses[slice] {
				return true
			}
		}
	}
	return false
}

// declaredOutside reports whether id's object is declared outside the
// range statement, i.e. the loop is mutating state that survives it.
func declaredOutside(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent digs to the base identifier of expr: x, x[i], x.f[i] → x.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// calleeFunc resolves the *types.Func a selector's Sel identifies, or
// nil when it is not a function.
func calleeFunc(pass *analysis.Pass, sel *ast.Ident) *types.Func {
	fn, _ := pass.TypesInfo.Uses[sel].(*types.Func)
	return fn
}

func typeOf(pass *analysis.Pass, expr ast.Expr) types.Type {
	if t := pass.TypesInfo.TypeOf(expr); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}
