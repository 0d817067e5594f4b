// Package walchain verifies the WAL version-chain discipline of the
// kvstore's write kernel. The chain invariant — every linked record's prev
// names exactly the version it replaced — holds because one function, the
// step, draws the version and reads prev in the same border-lock critical
// section, one function, the log stage, turns its result into a record, and
// the worker lock spans both. A prev read anywhere else is a TOCTOU: a
// racing writer slips between the read and the draw, the logged chain skips
// a version, and replay counts it as broken. So the analyzer asserts the
// kernel's shape rather than recognising write paths:
//
//   - nextVersion is called only in the step, and the step only inside a
//     func literal passed to a tree write method (Update, Apply,
//     PutBatchInto, BatchInto) — under the border lock of the key it stamps;
//   - a put record is appended (wal.Batch's Put, Insert and Anchor, and the
//     one-record Writer.AppendPut) only in the log stage, so the
//     insert/anchor/linked choice exists once, for one key or a batch;
//   - the version of every such record and the prev of every linked one are
//     a step result's ver and prev fields — directly, or through a variable
//     assigned from nothing else — or prev is the literal 0 (a chain
//     anchor);
//   - and a lockWorker call precedes every log-stage call in its function:
//     the draw-to-append window is serialized.
//
// The analysis is syntactic and per-function; values laundered through
// helper calls are flagged conservatively (//lint:allow walchain with a
// reason for deliberate exceptions).
package walchain

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the walchain pass.
var Analyzer = &analysis.Analyzer{
	Name:     "walchain",
	Doc:      "check that WAL versions and prev links are drawn in the write kernel's step and appended by its log stage under the worker lock",
	Packages: []string{"internal/kvstore"},
	Run:      run,
}

// The kernel's names: the step and log-stage methods, and the step's result
// type, whose ver and prev fields are the only sources a record may draw on.
const (
	stepFunc   = "step"
	logFunc    = "logWrite"
	resultType = "writeResult"
)

// treeWrites are the tree methods whose func-literal argument runs under
// the border lock of the key it mutates.
var treeWrites = map[string]bool{"Update": true, "Apply": true, "PutBatchInto": true, "BatchInto": true}

// putAppends maps the methods that append a put record, as Type.Method, to
// the argument positions of (version, prev); -1 for a form with no link.
var putAppends = map[string][2]int{
	"Writer.AppendPut": {0, 1},
	"Batch.Put":        {0, 1},
	"Batch.Insert":     {0, -1},
	"Batch.Anchor":     {0, -1},
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fn := fd.Name.Name

	// What the checks need from the function: the calls made under a border
	// lock (inside a func literal passed to a tree write method), its first
	// lockWorker call, and for every assigned variable or slice element what
	// it was assigned from (see sourceOf).
	locked := map[*ast.CallExpr]bool{}
	lockPos := token.NoPos
	sources := map[string]map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if ok && sel.Sel.Name == "lockWorker" && !lockPos.IsValid() {
				lockPos = n.Pos()
			}
			if ok && treeWrites[sel.Sel.Name] {
				for _, arg := range n.Args {
					if fl, ok := arg.(*ast.FuncLit); ok {
						ast.Inspect(fl, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok {
								locked[c] = true
							}
							return true
						})
					}
				}
			}
		case *ast.AssignStmt:
			for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
				key := exprKey(n.Lhs[i])
				if sources[key] == nil {
					sources[key] = map[string]bool{}
				}
				sources[key][sourceOf(info, n.Rhs[i])] = true
			}
		}
		return true
	})

	// check reports an append argument that is not the step result's field:
	// the field itself, or something assigned from it (for prev, also from
	// 0) and from nothing else.
	check := func(e ast.Expr, field, site string) {
		if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok && field == "prev" {
			if lit.Value != "0" {
				pass.Reportf(e.Pos(), "constant prev %s in %s: only 0 (a chain anchor) may be a constant link", lit.Value, site)
			}
			return
		}
		ok := sourceOf(info, e) == field
		for src := range sources[exprKey(e)] {
			ok = src == field || src == "0" && field == "prev"
			if !ok {
				break
			}
		}
		if !ok {
			pass.Reportf(e.Pos(), "%s %s of %s is not sourced from the step's result: it must be the %s field the step set under the border lock", field, types.ExprString(e), site, field)
		}
	}
	needLock := func(pos token.Pos, what string) {
		if !lockPos.IsValid() || pos < lockPos {
			pass.Reportf(pos, "%s before lockWorker: no lockWorker call precedes it, so the draw-to-append window is not serialized", what)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch {
		case name == "nextVersion" && fn != stepFunc:
			pass.Reportf(call.Pos(), "nextVersion outside the kernel step: the only version draw is the one %s makes under the border lock", stepFunc)
		case name == stepFunc && !locked[call]:
			pass.Reportf(call.Pos(), "%s outside a tree-write critical section: the step must run inside the func literal passed to Update/Apply/PutBatchInto/BatchInto", stepFunc)
		case name == logFunc:
			needLock(call.Pos(), logFunc)
		default:
			site := namedType(info, sel.X) + "." + name
			argIdx, ok := putAppends[site]
			if !ok || len(call.Args) < 2 {
				break
			}
			if fn != logFunc {
				pass.Reportf(call.Pos(), "%s outside the log stage: put records belong to %s, where the insert/anchor/linked choice is made once", site, logFunc)
				needLock(call.Pos(), site)
			}
			check(call.Args[argIdx[0]], "ver", site)
			if argIdx[1] >= 0 {
				check(call.Args[argIdx[1]], "prev", site)
			}
		}
		return true
	})
}

// sourceOf classifies what an expression reads: "ver" or "prev" for that
// field of a step result, "0" for the literal, "other" for anything else.
func sourceOf(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if x.Value == "0" {
			return "0"
		}
	case *ast.SelectorExpr:
		if (x.Sel.Name == "ver" || x.Sel.Name == "prev") && namedType(info, x.X) == resultType {
			return x.Sel.Name
		}
	}
	return "other"
}

// exprKey names an assignable expression for the sources table: its text.
func exprKey(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }

// namedType returns the name of the named type the expression's type is (or
// points to) — the WAL Writer, its Batch, the step's result — or "".
func namedType(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
