// Package cfg builds a compact control-flow graph over a function body's
// statements, sufficient for the flow-sensitive analyzers in this suite
// (lock-pairing). It is a miniature, dependency-free stand-in for
// golang.org/x/tools/go/cfg.
//
// Blocks hold only "atomic" nodes — simple statements and bare expressions,
// never statements with nested bodies — so transfer functions can walk a
// node's full subtree safely. Branch conditions ride on edges together with
// the sense in which they were taken, which is how condition-dependent
// facts (TryLock success, nil checks of conditionally locked results) stay
// visible to the dataflow.
package cfg

import "go/ast"

// Edge is a control-flow successor. Cond is nil for unconditional edges;
// otherwise the edge is taken when Cond evaluates to Sense.
type Edge struct {
	To    *Block
	Cond  ast.Expr
	Sense bool
}

// Block is a straight-line run of atomic nodes.
type Block struct {
	Nodes []ast.Node
	Succs []Edge
	Index int
}

// Graph is one function body's control-flow graph. Exit is reached only by
// falling off the end of the body (an implicit return); explicit returns
// end their blocks with the *ast.ReturnStmt node and terminate the path, so
// analyses check return-site state at the node and implicit-return state at
// Exit without double-counting.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the graph for body. noReturn reports calls that never return
// (panic and equivalents); statements after them are treated as unreachable.
func New(body *ast.BlockStmt, noReturn func(*ast.CallExpr) bool) *Graph {
	if noReturn == nil {
		noReturn = func(*ast.CallExpr) bool { return false }
	}
	b := &builder{noReturn: noReturn, labels: map[string]*labelInfo{}}
	b.graph = &Graph{}
	b.graph.Entry = b.newBlock()
	b.graph.Exit = b.newBlock()
	b.cur = b.graph.Entry
	b.stmtList(body.List, "")
	b.jump(b.graph.Exit)
	return b.graph
}

type labelInfo struct {
	target *Block // goto / labeled-statement entry
	brk    *Block // break target when the label names a loop/switch
	cont   *Block // continue target when the label names a loop
}

type builder struct {
	graph    *Graph
	cur      *Block // nil after a terminating statement
	noReturn func(*ast.CallExpr) bool

	breaks    []*Block
	continues []*Block
	labels    map[string]*labelInfo
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// block returns the current block, materializing an unreachable one after a
// terminator so subsequent nodes still land somewhere.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) append(n ast.Node) { b.block().Nodes = append(b.block().Nodes, n) }

func (b *builder) jump(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, Edge{To: to})
	}
	b.cur = nil
}

func (b *builder) branch(cond ast.Expr, t, f *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs,
			Edge{To: t, Cond: cond, Sense: true},
			Edge{To: f, Cond: cond, Sense: false})
	}
	b.cur = nil
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

func (b *builder) stmtList(list []ast.Stmt, pendingLabel string) {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = pendingLabel
		}
		b.stmt(s, lbl)
	}
}

// stmt builds one statement. label is non-empty when the statement is the
// direct body of a labeled statement (so loops can bind break/continue).
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.jump(li.target)
		b.cur = li.target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ExprStmt:
		b.append(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn(call) {
			b.cur = nil
		}

	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt:
		b.append(s)

	case *ast.EmptyStmt:
		// nothing

	case *ast.ReturnStmt:
		b.append(s)
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		then, after := b.newBlock(), b.newBlock()
		alt := after
		if s.Else != nil {
			alt = b.newBlock()
		}
		b.branch(s.Cond, then, alt)
		b.cur = then
		b.stmtList(s.Body.List, "")
		b.jump(after)
		if s.Else != nil {
			b.cur = alt
			b.stmt(s.Else, "")
			b.jump(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		body, after := b.newBlock(), b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.branch(s.Cond, body, after)
		} else {
			b.jump(body)
		}
		if label != "" {
			li := b.label(label)
			li.brk, li.cont = after, post
		}
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, post)
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.append(s.Post)
			b.jump(head)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body, after := b.newBlock(), b.newBlock()
		b.append(rangeNode(s))
		b.jump(head)
		head.Succs = append(head.Succs, Edge{To: body}, Edge{To: after})
		if label != "" {
			li := b.label(label)
			li.brk, li.cont = after, head
		}
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, head)
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.jump(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.caseClauses(s.Body.List, label, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.caseClauses(s.Body.List, label, false)

	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, label, true)

	default:
		// Unknown statement kind: record it so analyzers can at least see
		// it, and continue straight-line.
		b.append(s)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	var to *Block
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			to = b.label(s.Label.Name).brk
		} else if len(b.breaks) > 0 {
			to = b.breaks[len(b.breaks)-1]
		}
	case "continue":
		if s.Label != nil {
			to = b.label(s.Label.Name).cont
		} else if len(b.continues) > 0 {
			to = b.continues[len(b.continues)-1]
		}
	case "goto":
		to = b.label(s.Label.Name).target
	case "fallthrough":
		// Handled by caseClauses via fallthrough edges; terminate here.
	}
	if to != nil {
		b.jump(to)
	} else {
		b.cur = nil
	}
}

// caseClauses builds switch/select clause bodies. The dispatch block edges
// to every clause unconditionally (clause guards carry no semantics the
// analyzers need); a missing default also edges to after.
func (b *builder) caseClauses(clauses []ast.Stmt, label string, isSelect bool) {
	dispatch := b.block()
	after := b.newBlock()
	if label != "" {
		b.label(label).brk = after
	}
	b.breaks = append(b.breaks, after)

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i, cl := range clauses {
		var body []ast.Stmt
		var comm ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			body = cl.Body
			if cl.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cl.Body
			comm = cl.Comm
			if cl.Comm == nil {
				hasDefault = true
			}
		}
		dispatch.Succs = append(dispatch.Succs, Edge{To: blocks[i]})
		b.cur = blocks[i]
		if comm != nil {
			b.stmt(comm, "")
		}
		// fallthrough: a trailing fallthrough jumps to the next clause body.
		ft := -1
		for j, s := range body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && j == len(body)-1 {
				ft = i + 1
				body = body[:j]
				break
			}
		}
		b.stmtList(body, "")
		if ft >= 0 && ft < len(blocks) {
			b.jump(blocks[ft])
		} else {
			b.jump(after)
		}
	}
	// A switch without a default can skip every clause; a select without a
	// default blocks, but modeling the skip edge is sound for our analyses
	// either way.
	if !hasDefault || isSelect {
		dispatch.Succs = append(dispatch.Succs, Edge{To: after})
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// rangeNode exposes a RangeStmt's header (key/value assignment and ranged
// expression) as an atomic node without its body.
func rangeNode(s *ast.RangeStmt) ast.Node {
	if s.Key == nil && s.Value == nil {
		return s.X
	}
	// Synthesize an assignment so dataflow sees the header's bindings.
	lhs := []ast.Expr{}
	if s.Key != nil {
		lhs = append(lhs, s.Key)
	}
	if s.Value != nil {
		lhs = append(lhs, s.Value)
	}
	return &ast.AssignStmt{Lhs: lhs, Tok: s.Tok, TokPos: s.For, Rhs: []ast.Expr{s.X}}
}
