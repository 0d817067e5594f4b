// Package epochguard verifies that every core.Tree read or scan reachable
// from the kvstore is bracketed by an epoch pin (Handle.Enter/Exit). The
// tree's optimistic readers dereference nodes that writers may retire; the
// epoch pin is what keeps retired memory alive, so an unpinned read is a
// use-after-reclaim waiting for the right interleaving.
//
// The analysis runs a forward dataflow over each function's CFG with a
// may-be-unpinned state. Handle.Enter() pins, Handle.Exit() unpins, and a
// deferred Exit is correctly treated as running at return, not at the defer
// statement. Functions annotated //masstree:pinned start pinned — their
// contract is that the caller holds the pin — and calls to pinned-annotated
// functions from possibly-unpinned states are themselves flagged, which
// makes the contract transitive.
//
// Tree reads are method calls named Get, GetBatch, GetBatchInto, BatchInto,
// Prefetch, Scan, ScanInto, ScanNInto, or GetRange on a type named Tree; pins are
// Enter/Exit on a type named Handle. Function literals are not analyzed
// (they run at an unknown time); tree reads inside them must live in a
// named, annotated function.
package epochguard

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the epochguard pass.
var Analyzer = &analysis.Analyzer{
	Name:     "epochguard",
	Doc:      "check that core.Tree reads are bracketed by an epoch pin (Handle.Enter/Exit)",
	Packages: []string{"internal/kvstore"},
	Run:      run,
}

var treeReads = map[string]bool{
	"Get": true, "GetBatch": true, "GetBatchInto": true, "BatchInto": true, "Prefetch": true,
	"Scan": true, "ScanInto": true, "ScanNInto": true, "GetRange": true,
}

func run(pass *analysis.Pass) {
	decls := analysis.FuncDecls(pass.All)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, fd, decls)
		}
	}
}

// state is the set of pin conditions a path may be in.
type state struct{ pinned, unpinned bool }

func (s state) union(o state) state {
	return state{s.pinned || o.pinned, s.unpinned || o.unpinned}
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	info := pass.Pkg.Info
	entry := state{unpinned: true}
	if analysis.FuncFactsOf(fd).Pinned {
		entry = state{pinned: true}
	}

	g := cfg.New(fd.Body, func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := info.Uses[id].(*types.Builtin)
		return builtin && id.Name == "panic"
	})

	in := make([]state, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	in[g.Entry.Index], seen[g.Entry.Index] = entry, true
	reported := map[ast.Node]bool{}

	work := []*cfg.Block{g.Entry}
	queued := map[int]bool{g.Entry.Index: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		s := in[b.Index]
		for _, n := range b.Nodes {
			s = transfer(pass, info, decls, reported, s, n)
		}
		for _, e := range b.Succs {
			merged := s
			if seen[e.To.Index] {
				merged = in[e.To.Index].union(s)
			}
			if merged != in[e.To.Index] || !seen[e.To.Index] {
				in[e.To.Index], seen[e.To.Index] = merged, true
				if !queued[e.To.Index] {
					queued[e.To.Index] = true
					work = append(work, e.To)
				}
			}
		}
	}
}

func transfer(pass *analysis.Pass, info *types.Info, decls map[*types.Func]*ast.FuncDecl, reported map[ast.Node]bool, s state, node ast.Node) state {
	if _, ok := node.(*ast.DeferStmt); ok {
		return s // deferred Enter/Exit runs at return, not here
	}
	var calls []*ast.CallExpr
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, call)
		}
		return true
	})
	for _, call := range calls {
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		callee := analysis.CalleeOf(info, call)
		if sel != nil && callee != nil && callee.Signature().Recv() != nil {
			recv := namedRecvName(callee)
			switch {
			case recv == "Handle" && sel.Sel.Name == "Enter":
				s = state{pinned: true}
				continue
			case recv == "Handle" && sel.Sel.Name == "Exit":
				s = state{unpinned: true}
				continue
			case recv == "Tree" && treeReads[sel.Sel.Name]:
				if s.unpinned && !reported[call] {
					reported[call] = true
					pass.Reportf(call.Pos(), "tree read %s.%s outside an epoch pin (Handle.Enter)", exprName(sel.X), sel.Sel.Name)
				}
				continue
			}
		}
		if callee != nil && analysis.FuncFactsOf(decls[callee]).Pinned {
			if s.unpinned && !reported[call] {
				reported[call] = true
				pass.Reportf(call.Pos(), "call to %s (masstree:pinned) without an epoch pin", callee.Name())
			}
		}
	}
	return s
}

// namedRecvName returns the name of a method's receiver's named type.
func namedRecvName(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "tree"
}
