// Package exhauststatus enforces exhaustive handling of the ABI status
// domain. The status codes in internal/abi are an append-only enum: PR 8
// added StatusThrottled/StatusFaulted/StatusRetry, and any dispatch that
// enumerates statuses without covering the full set silently drops new
// ones — the exact failure the dynamic TestStatusNameExhaustive guards
// against for the one statusNames table, generalized here to every
// switch and keyed table in the tree.
//
// A construct is in scope when a case expression (or composite-literal
// key) resolves to an internal/abi constant named Status*. The required
// set is the dense block bounded by NumStatusCodes; StatusErr is the
// documented out-of-band all-ones code and is excluded.
//
// Such a switch must list every status constant, or carry a `default`
// clause (a new status then lands somewhere visible rather than falling
// through silently), or be annotated `//detlint:partial <reason>`.
// Keyed composite literals must list every status constant as a key or
// carry the annotation.
package exhauststatus

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"repro/internal/detlint/analysis"
	"repro/internal/detlint/directive"
)

// Analyzer is the exhauststatus pass.
var Analyzer = &analysis.Analyzer{
	Name: "exhauststatus",
	Doc: "require switches and keyed tables over ABI status constants to cover the full status set\n\n" +
		"New statuses (like PR 8's StatusThrottled/Faulted/Retry) must never be\n" +
		"silently unhandled in clients; cover every constant, add a default, or\n" +
		"annotate //detlint:partial.",
	Run: run,
}

// The status family: constants named prefix in the package whose import
// path ends in pathSuffix, below the dense-block bound (which is excluded,
// with everything at or above its value).
const (
	pathSuffix = "internal/abi"
	prefix     = "Status"
	bound      = "NumStatusCodes"
)

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := directive.Collect(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, dirs, n)
			case *ast.CompositeLit:
				checkLiteral(pass, dirs, n)
			}
			return true
		})
	}
	return nil, nil
}

// constOf resolves an expression to a declared named constant.
func constOf(pass *analysis.Pass, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pass.TypesInfo.Uses[id].(*types.Const)
	return c
}

// isStatus reports whether a constant belongs to the status family.
func isStatus(c *types.Const) bool {
	return c != nil && c.Pkg() != nil &&
		strings.HasSuffix(c.Pkg().Path(), pathSuffix) && strings.HasPrefix(c.Name(), prefix)
}

// members enumerates the family's required constants in the declaring
// package, as value → name, dropping the bound constant and everything
// at or above its value (abi.StatusErr).
func members(pkg *types.Package) map[uint64]string {
	limit := ^uint64(0)
	if b, ok := pkg.Scope().Lookup(bound).(*types.Const); ok {
		if v, ok := constant.Uint64Val(constant.ToInt(b.Val())); ok {
			limit = v
		}
	}
	out := make(map[uint64]string)
	for _, name := range pkg.Scope().Names() {
		c, ok := pkg.Scope().Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, prefix) || name == bound {
			continue
		}
		v, ok := constant.Uint64Val(constant.ToInt(c.Val()))
		if !ok || v >= limit {
			continue
		}
		// Prefer the canonical (shortest, then lexically first) name
		// when aliases share a value.
		if prev, dup := out[v]; !dup || len(name) < len(prev) || (len(name) == len(prev) && name < prev) {
			out[v] = name
		}
	}
	return out
}

// covered records the constant values present among exprs and returns
// the declaring package of the first status constant found (nil if none).
func covered(pass *analysis.Pass, exprs []ast.Expr, into map[uint64]bool) *types.Package {
	var pkg *types.Package
	for _, e := range exprs {
		c := constOf(pass, e)
		if c == nil {
			continue
		}
		if v, ok := constant.Uint64Val(constant.ToInt(c.Val())); ok {
			into[v] = true
		}
		if pkg == nil && isStatus(c) {
			pkg = c.Pkg()
		}
	}
	return pkg
}

func missing(req map[uint64]string, got map[uint64]bool) []string {
	var names []string
	for v, name := range req {
		if !got[v] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func checkSwitch(pass *analysis.Pass, dirs *directive.Map, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return // tagless switches dispatch on arbitrary booleans
	}
	got := make(map[uint64]bool)
	var exprs []ast.Expr
	hasDefault := false
	for _, cl := range sw.Body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		exprs = append(exprs, cc.List...)
	}
	pkg := covered(pass, exprs, got)
	if pkg == nil || hasDefault {
		return
	}
	if d, ok := dirs.For("partial", sw.Pos()); ok {
		if d.Reason == "" {
			pass.Reportf(sw.Pos(), "//detlint:partial annotation needs a justification (why may these statuses be ignored here?)")
		}
		return
	}
	if miss := missing(members(pkg), got); len(miss) > 0 {
		pass.Reportf(sw.Pos(), "switch on %s status values does not handle %s: add cases, a default clause, or //detlint:partial <reason>", pkg.Name(), strings.Join(miss, ", "))
	}
}

func checkLiteral(pass *analysis.Pass, dirs *directive.Map, lit *ast.CompositeLit) {
	got := make(map[uint64]bool)
	var keys []ast.Expr
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: not a status-keyed table
		}
		keys = append(keys, kv.Key)
	}
	pkg := covered(pass, keys, got)
	if pkg == nil {
		return
	}
	if d, ok := dirs.For("partial", lit.Pos()); ok {
		if d.Reason == "" {
			pass.Reportf(lit.Pos(), "//detlint:partial annotation needs a justification (why may these statuses be absent here?)")
		}
		return
	}
	if miss := missing(members(pkg), got); len(miss) > 0 {
		pass.Reportf(lit.Pos(), "status-keyed table does not cover %s: a new %s.%s* constant would render as the zero value; add entries or //detlint:partial <reason>", strings.Join(miss, ", "), pkg.Name(), prefix)
	}
}
