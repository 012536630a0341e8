// Package tracewriter enforces the PR 7 trace-ring writer discipline on
// the emit path in internal/trace: every method on the ring types
// (Ring, Tracer) must be
//
//   - nil-receiver-safe — instrumentation sites record unconditionally
//     (`k.tr.Core(i).Emit(...)` with tracing off), so a method that
//     touches receiver state must first bail on a nil receiver; and
//   - lock- and channel-free — a ring is written only by the goroutine
//     that owns its core (or the single-threaded epoch commit), which
//     is the entire reason RunParallelFor needs no synchronization on the
//     emit path. A lock here would hide a cross-goroutine write the
//     race detector and the checksum tests are designed to surface.
//
// A method may opt out with `//detlint:tracewriter <reason>` (for
// example, an exporter helper that is documented as post-run only),
// placed on the method declaration.
package tracewriter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/detlint/analysis"
	"repro/internal/detlint/directive"
	"repro/internal/detlint/simscope"
)

// Analyzer is the tracewriter pass.
var Analyzer = &analysis.Analyzer{
	Name: "tracewriter",
	Doc: "enforce the trace-ring writer discipline: nil-safe, lock-free emit methods\n\n" +
		"Methods on trace.Ring and trace.Tracer must guard a nil receiver before\n" +
		"touching state and must not take locks or use channels.",
	Run: run,
}

// writerTypes are the ring types whose methods form the emit path.
var writerTypes = map[string]bool{"Ring": true, "Tracer": true}

func run(pass *analysis.Pass) (interface{}, error) {
	if !simscope.Trace(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := directive.Collect(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			if !writerTypes[recvTypeName(fd.Recv.List[0].Type)] {
				continue
			}
			if d, ok := dirs.For("tracewriter", fd.Pos()); ok {
				if d.Reason == "" {
					pass.Reportf(fd.Pos(), "//detlint:tracewriter annotation needs a justification (why is this method outside the writer discipline?)")
				}
				continue
			}
			checkLockFree(pass, fd)
			checkNilSafe(pass, fd)
		}
	}
	return nil, nil
}

func recvTypeName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkLockFree reports sync primitives, channel operations and
// goroutine launches inside a writer method.
func checkLockFree(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					pass.Reportf(n.Pos(), "trace writer method %s calls sync.%s.%s: the emit path must stay lock-free (single-writer-per-ring discipline)", name, recvShort(fn), fn.Name())
				}
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "trace writer method %s sends on a channel: the emit path must not synchronize", name)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "trace writer method %s receives from a channel: the emit path must not synchronize", name)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "trace writer method %s uses select: the emit path must not synchronize", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "trace writer method %s starts a goroutine: rings are single-writer", name)
		}
		return true
	})
}

func recvShort(fn *types.Func) string {
	if r := fn.Signature().Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	return "?"
}

// checkNilSafe requires that any receiver *state* access (field read or
// write, indexing, dereference) is preceded by an `if recv == nil`
// guard that returns. Calling further methods on the receiver is safe —
// the callee is checked itself.
func checkNilSafe(pass *analysis.Pass, fd *ast.FuncDecl) {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return // receiver unused or unnamed: nothing to deref
	}
	recv := pass.TypesInfo.Defs[names[0]]
	if recv == nil {
		return
	}
	for _, stmt := range fd.Body.List {
		if guardsNil(pass, stmt, recv) {
			return // everything after the guard may touch state
		}
		if pos, found := firstStateUse(pass, stmt, recv); found {
			pass.Reportf(pos, "trace writer method %s touches receiver state before a nil check: emit sites record unconditionally, so a nil %s must be a no-op (guard with `if %s == nil { return }`)", fd.Name.Name, recvTypeName(fd.Recv.List[0].Type), names[0].Name)
			return
		}
	}
}

// guardsNil reports whether stmt is `if recv == nil { ...return }`,
// possibly with further ||-conditions after the nil test.
func guardsNil(pass *analysis.Pass, stmt ast.Stmt, recv types.Object) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	// Walk to the leftmost atom of a left-associative || chain.
	cond := ast.Unparen(ifs.Cond)
	for {
		bin, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if bin.Op == token.LOR {
			cond = ast.Unparen(bin.X)
			continue
		}
		if bin.Op != token.EQL {
			return false
		}
		if !isNilCompare(pass, bin, recv) {
			return false
		}
		break
	}
	return terminates(ifs.Body)
}

func isNilCompare(pass *analysis.Pass, bin *ast.BinaryExpr, recv types.Object) bool {
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}

func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// firstStateUse finds the first field access, index or dereference of
// the receiver under n (source order).
func firstStateUse(pass *analysis.Pass, n ast.Node, recv types.Object) (token.Pos, bool) {
	var pos token.Pos
	found := false
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == recv
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isRecv(n.X) {
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					pos, found = n.Pos(), true
				}
			}
		case *ast.IndexExpr:
			if isRecv(n.X) {
				pos, found = n.Pos(), true
			}
		case *ast.StarExpr:
			if isRecv(n.X) {
				pos, found = n.Pos(), true
			}
		}
		return !found
	})
	return pos, found
}
