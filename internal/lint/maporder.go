package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// MapOrder flags range statements over maps in the code that must be
// byte-stable or rank-deterministic: the root package's codec*.go files
// and its shard*/query* files (the sharded codec and the files feeding
// ordered assertions), and the ordering packages (internal/core,
// internal/order, internal/shard). Go randomizes map iteration order on purpose; an
// unordered range in a codec path silently breaks the golden files, and
// in an ordering path it breaks the determinism the closed-form/solver
// rank pinning depends on.
//
// Two shapes are allowed without a marker:
//
//   - collect-then-sort: a loop whose body only appends keys/values to
//     slices that are all passed to a sort call later in the same
//     function — the idiomatic deterministic map drain;
//   - a loop carrying //lpm:orderok (same line or the line above) with
//     the justification alongside, for genuinely order-free folds
//     (counting, summing, set union).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map in codec and ordering code unless the keys are " +
		"collected and sorted (or the loop is marked //lpm:orderok), protecting " +
		"byte-stable output and rank determinism",
	Run: runMapOrder,
}

// mapOrderPackages lists import-path suffixes whose every file is in
// scope.
var mapOrderPackages = []string{
	"internal/core",
	"internal/order",
	"internal/shard",
}

// mapOrderFilePrefixes lists base-name prefixes in scope in any package
// (the root package's codec, shard, and query files, tests included).
var mapOrderFilePrefixes = []string{"codec", "shard", "query"}

func runMapOrder(pass *Pass) {
	pkgInScope := false
	for _, suffix := range mapOrderPackages {
		if hasPathSuffix(strings.TrimSuffix(pass.PkgPath, "_test"), suffix) ||
			strings.HasSuffix(strings.TrimSuffix(pass.PkgPath, "_test"), suffix) {
			pkgInScope = true
			break
		}
	}
	for _, f := range pass.Files {
		if !pkgInScope && !mapOrderFileInScope(pass, f) {
			continue
		}
		// Walk function by function so the collect-then-sort check can see
		// the statements following each loop.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkMapRanges(pass, fn.Body)
				}
				return false
			case *ast.FuncLit:
				checkMapRanges(pass, fn.Body)
				return false
			}
			return true
		})
	}
}

func mapOrderFileInScope(pass *Pass, f *ast.File) bool {
	base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
	for _, prefix := range mapOrderFilePrefixes {
		if strings.HasPrefix(base, prefix) {
			return true
		}
	}
	return false
}

// checkMapRanges inspects one function body (descending into nested
// literals, since sort calls must be found in the same function as the
// loop).
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.allowedAt(rs.Pos(), "lpm:orderok") {
			return true
		}
		if collectThenSorted(pass, rs, body) {
			return true
		}
		pass.Reportf(rs.Pos(), "range over map %s iterates in randomized order; sort the keys first (or mark //lpm:orderok with justification)", types.ExprString(rs.X))
		return true
	})
}

// collectThenSorted recognizes the deterministic drain idiom: every
// statement of the loop body appends the key and/or value to local
// slices, and each of those slices is sorted by a recognized sort call
// positioned after the loop in the same function body.
func collectThenSorted(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	var targets []types.Object
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(pass, obj, rs, fnBody) {
			return false
		}
	}
	return true
}

// sortCallNames recognizes the stdlib sort entry points.
var sortCallNames = map[string]map[string]bool{
	"sort": {
		"Ints": true, "Strings": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether obj is the first argument of a recognized
// sort call placed after the range statement within the function body.
func sortedAfter(pass *Pass, obj types.Object, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		names := sortCallNames[pkgName.Imported().Name()]
		if names == nil || !names[sel.Sel.Name] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
