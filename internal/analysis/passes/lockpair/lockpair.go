// Package lockpair verifies the hand-over-hand border-lock discipline of the
// tree's write paths: every node lock acquired in a function is released on
// every path out of it, transfers between functions follow the declared
// //masstree: contracts, and unlocks always target locks actually held.
//
// A node lock is the version word of internal/occ: the Lock, Unlock,
// TryLock and Stable methods of occ.Version, and no other type's, so a
// sync.Mutex beside the nodes is not tracked. A lockable value is an
// occ.Version, a type that embeds one (core's nodeHeader), or a struct
// holding such a type in a field named h.
//
// The analysis runs a forward dataflow over each function's CFG. A state is
// a set of possible locksets; each lockset is a set of canonical lock keys
// ("n.h" for n *borderNode, "n" for n *nodeHeader) plus nil-ness facts about
// variables bound to conditionally-locked results. The moves it understands:
//
//   - x.Lock() / x.Unlock() / x.TryLock(): the spinlock primitives. TryLock
//     acquires only on the true edge of the branch it guards.
//   - x.Stable() on a lock the path holds: reported, since the holder may
//     have marked the node dirty, and Stable would then spin forever.
//   - hand-over-hand transfer: next.h.Lock(); n.h.Unlock(); n = next renames
//     the lock "next.h" to "n.h" through the assignment.
//   - any other assignment to a variable whose lock is held: reported as
//     lost, since nothing can release it any more.
//   - //masstree:locked n — callee requires (and keeps) n locked.
//   - //masstree:unlocks n — callee consumes n's lock on every path.
//   - //masstree:returns-locked — the function returns nil holding no lock,
//     or a result whose lock it holds and no other (besides its
//     //masstree:locked parameters'); at the call the state splits and
//     nil-check branches resolve it.
//   - //masstree:acquires k / //masstree:releases k — statement-level
//     escape hatch for lock transitions the analyzer cannot see, e.g.
//     constructor-locked nodes (newBorder(..., true)).
//
// Limitations (documented, deliberate): locks stored into fields or reached
// through calls are not tracked; a TryLock result assigned to a variable is
// not tracked (use it directly in the condition); deferred unlocks are
// credited on every exit path.
package lockpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the lockpair pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockpair",
	Doc:      "check that every node lock is released on all paths and lock transfers follow masstree: contracts",
	Packages: []string{"internal/core"},
	Run:      run,
}

// maxStates bounds the per-block state set; beyond it the function is
// abandoned with a diagnostic rather than risking non-termination.
const maxStates = 256

// versionPath and versionType name the one type whose methods are node
// locks.
const (
	versionPath = "repro/internal/occ"
	versionType = "Version"
)

// versionMethod returns fn's name if fn is a method of occ.Version, else "".
func versionMethod(fn *types.Func) string {
	if fn == nil || fn.Signature().Recv() == nil {
		return ""
	}
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != versionType || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != versionPath {
		return ""
	}
	return fn.Name()
}

func run(pass *analysis.Pass) {
	decls := analysis.FuncDecls(pass.All)
	for _, file := range pass.Pkg.Files {
		dirs := analysis.LineDirectives(pass.Pkg.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, fd, decls, dirs)
		}
	}
}

// lockset is one possible program state: the locks held plus what is known
// about the nil-ness of variables holding conditionally-locked results
// (true = known non-nil, false = known nil).
type lockset struct {
	locks map[string]bool
	facts map[string]bool
}

func newLockset() *lockset {
	return &lockset{locks: map[string]bool{}, facts: map[string]bool{}}
}

func (ls *lockset) clone() *lockset {
	c := newLockset()
	for k := range ls.locks {
		c.locks[k] = true
	}
	for k, v := range ls.facts {
		c.facts[k] = v
	}
	return c
}

func (ls *lockset) key() string {
	locks := make([]string, 0, len(ls.locks))
	for k := range ls.locks {
		locks = append(locks, k)
	}
	sort.Strings(locks)
	facts := make([]string, 0, len(ls.facts))
	for k, v := range ls.facts {
		if v {
			facts = append(facts, k+"+")
		} else {
			facts = append(facts, k+"-")
		}
	}
	sort.Strings(facts)
	return strings.Join(locks, ",") + "|" + strings.Join(facts, ",")
}

type funcAnalysis struct {
	pass     *analysis.Pass
	info     *types.Info
	decls    map[*types.Func]*ast.FuncDecl
	dirs     map[int][]analysis.LineDirective
	facts    analysis.FuncFacts
	expected map[string]bool // keys that must be held at every return
	deferred map[string]bool // keys released by deferred calls
	reported map[string]bool
	exploded bool
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl, dirs map[int][]analysis.LineDirective) {
	fa := &funcAnalysis{
		pass:     pass,
		info:     pass.Pkg.Info,
		decls:    decls,
		dirs:     dirs,
		facts:    analysis.FuncFactsOf(fd),
		expected: map[string]bool{},
		deferred: map[string]bool{},
		reported: map[string]bool{},
	}

	entry := newLockset()
	for _, contract := range []struct {
		names []string
		keep  bool
	}{{fa.facts.Locked, true}, {fa.facts.Unlocks, false}} {
		for _, name := range contract.names {
			key := fa.paramKey(fd, name)
			if key == "" {
				fa.reportf(fd.Pos(), "masstree: contract names %q, which is not a lockable parameter", name)
				continue
			}
			entry.locks[key] = true
			if contract.keep {
				fa.expected[key] = true
			}
		}
	}

	// Deferred releases are credited at every exit (core never defers
	// unlocks; this keeps the analyzer honest on code that does).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for key := range fa.callReleases(d.Call) {
			fa.deferred[key] = true
		}
		return true
	})

	g := cfg.New(fd.Body, func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := fa.info.Uses[id].(*types.Builtin)
		return builtin && id.Name == "panic"
	})

	in := make([]map[string]*lockset, len(g.Blocks))
	for i := range in {
		in[i] = map[string]*lockset{}
	}
	in[g.Entry.Index][entry.key()] = entry

	work := []*cfg.Block{g.Entry}
	queued := map[int]bool{g.Entry.Index: true}
	for len(work) > 0 && !fa.exploded {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		states := make([]*lockset, 0, len(in[b.Index]))
		for _, ls := range in[b.Index] {
			states = append(states, ls.clone())
		}
		for _, n := range b.Nodes {
			states = fa.transfer(states, n)
		}
		for _, e := range b.Succs {
			changed := false
			for _, ls := range states {
				out := ls
				if e.Cond != nil {
					filtered, feasible := fa.filterEdge(ls.clone(), e.Cond, e.Sense)
					if !feasible {
						continue
					}
					out = filtered
				}
				k := out.key()
				if _, ok := in[e.To.Index][k]; !ok {
					if len(in[e.To.Index]) >= maxStates {
						fa.reportf(fd.Pos(), "lock state explosion; function not analyzed")
						fa.exploded = true
						break
					}
					in[e.To.Index][k] = out.clone()
					changed = true
				}
			}
			if changed && !queued[e.To.Index] {
				queued[e.To.Index] = true
				work = append(work, e.To)
			}
		}
	}
	if fa.exploded {
		return
	}

	// Exit is reached only by falling off the end of the body.
	for _, ls := range in[g.Exit.Index] {
		fa.checkExit(ls, fd.Body.Rbrace, nil)
	}
}

// transfer folds one atomic CFG node through every state.
func (fa *funcAnalysis) transfer(states []*lockset, node ast.Node) []*lockset {
	switch s := node.(type) {
	case *ast.AssignStmt:
		states = fa.handleAssign(states, s)
	case *ast.DeclStmt:
		states = fa.handleDecl(states, s)
	case *ast.ReturnStmt:
		states = fa.applyCalls(states, s, nil)
		var result ast.Expr
		if len(s.Results) == 1 {
			result = s.Results[0]
		}
		for _, ls := range states {
			fa.checkExit(ls, s.Pos(), result)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred releases are handled at exits; goroutine bodies run
		// elsewhere.
	default:
		states = fa.applyCalls(states, node, nil)
	}
	return fa.applyLineDirectives(states, node)
}

// applyLineDirectives folds //masstree:acquires and :releases annotations on
// the node's line into every state.
func (fa *funcAnalysis) applyLineDirectives(states []*lockset, node ast.Node) []*lockset {
	line := fa.pass.Fset().Position(node.Pos()).Line
	for _, d := range fa.dirs[line] {
		for _, key := range strings.Fields(d.Args) {
			for _, ls := range states {
				switch d.Verb {
				case "acquires":
					if ls.locks[key] {
						fa.reportf(node.Pos(), "double lock of %s", key)
					}
					ls.locks[key] = true
				case "releases":
					if !ls.locks[key] {
						fa.reportf(node.Pos(), "unlock of %s, which is not held", key)
					}
					delete(ls.locks, key)
				}
			}
		}
	}
	return states
}

// applyCalls processes every call in the node's subtree (skipping function
// literals, which execute elsewhere). resultUsed marks calls whose
// returns-locked result is consumed by the caller of applyCalls.
func (fa *funcAnalysis) applyCalls(states []*lockset, node ast.Node, resultUsed map[*ast.CallExpr]bool) []*lockset {
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
		states = fa.applyCall(states, call, resultUsed[call])
	}
	return states
}

// applyCall folds one call's lock effects through every state.
func (fa *funcAnalysis) applyCall(states []*lockset, call *ast.CallExpr, resultUsed bool) []*lockset {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	callee := analysis.CalleeOf(fa.info, call)
	if m := versionMethod(callee); m != "" && sel != nil {
		switch m {
		case "Lock":
			if key := render(sel.X); key != "" {
				for _, ls := range states {
					if ls.locks[key] {
						fa.reportf(call.Pos(), "double lock of %s", key)
					}
					ls.locks[key] = true
				}
			}
			return states
		case "Unlock":
			if key := render(sel.X); key != "" {
				for _, ls := range states {
					if !ls.locks[key] {
						fa.reportf(call.Pos(), "unlock of %s, which is not held", key)
					}
					delete(ls.locks, key)
				}
			}
			return states
		case "TryLock":
			// Acquisition happens on the true edge of the guarding branch;
			// a discarded or variable-bound result is not tracked.
			return states
		case "Stable":
			if key := render(sel.X); key != "" {
				for _, ls := range states {
					if ls.locks[key] {
						fa.reportf(call.Pos(), "Stable on %s, which is held: a dirty node it holds never stabilizes", key)
					}
				}
			}
			return states
		}
	}
	if callee == nil {
		return states
	}
	facts := analysis.FuncFactsOf(fa.decls[callee])
	if facts.Empty() {
		return states
	}
	actuals := bindActuals(fa.decls[callee], call)
	for _, name := range facts.Locked {
		key := fa.actualKey(actuals[name])
		if key == "" {
			continue
		}
		for _, ls := range states {
			if !ls.locks[key] {
				fa.reportf(call.Pos(), "call to %s requires %s held (masstree:locked)", callee.Name(), key)
			}
		}
	}
	for _, name := range facts.Unlocks {
		key := fa.actualKey(actuals[name])
		if key == "" {
			continue
		}
		for _, ls := range states {
			if !ls.locks[key] {
				fa.reportf(call.Pos(), "call to %s releases %s, which is not held", callee.Name(), key)
			}
			delete(ls.locks, key)
		}
	}
	if facts.ReturnsLocked && !resultUsed {
		fa.reportf(call.Pos(), "result of %s (masstree:returns-locked) discarded; the returned lock leaks", callee.Name())
	}
	return states
}

// callReleases returns the keys a call releases (its own unlock, or its
// masstree:unlocks contract), for crediting deferred calls.
func (fa *funcAnalysis) callReleases(call *ast.CallExpr) map[string]bool {
	keys := map[string]bool{}
	callee := analysis.CalleeOf(fa.info, call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && versionMethod(callee) == "Unlock" {
		if key := render(sel.X); key != "" {
			keys[key] = true
		}
		return keys
	}
	if callee == nil {
		return keys
	}
	facts := analysis.FuncFactsOf(fa.decls[callee])
	actuals := bindActuals(fa.decls[callee], call)
	for _, name := range facts.Unlocks {
		if key := fa.actualKey(actuals[name]); key != "" {
			keys[key] = true
		}
	}
	return keys
}

func (fa *funcAnalysis) handleAssign(states []*lockset, s *ast.AssignStmt) []*lockset {
	// A single-assign from a returns-locked call splits the state below
	// instead of reporting a discarded result.
	var special *ast.CallExpr
	var specialLHS *ast.Ident
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if callee := analysis.CalleeOf(fa.info, call); callee != nil {
				if analysis.FuncFactsOf(fa.decls[callee]).ReturnsLocked {
					if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						special, specialLHS = call, id
					}
				}
			}
		}
	}
	used := map[*ast.CallExpr]bool{}
	if special != nil {
		used[special] = true
	}
	states = fa.applyCalls(states, s, used)

	// Simultaneous rename: hand-over-hand transfers (n = next) and lock
	// rebinding (n, n2, sep = &p.h, &p2.h, sep2) move keys to their new
	// names; any other assignment over a held lock's variable loses it.
	var pairs []renamePair
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		p := renamePair{lhs: id.Name}
		if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) {
			p.rhsKey = render(s.Rhs[i])
			if rid, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident); ok {
				p.rhsVar = rid.Name
			}
		}
		pairs = append(pairs, p)
	}
	if len(pairs) > 0 {
		for i, ls := range states {
			states[i] = fa.renameState(ls, pairs, s.Pos())
		}
	}

	if special != nil {
		key := fa.actualTypeKey(specialLHS.Name, fa.identType(specialLHS))
		if key != "" {
			var split []*lockset
			for _, ls := range states {
				held := ls.clone()
				held.locks[key] = true
				held.facts[specialLHS.Name] = true
				ls.facts[specialLHS.Name] = false
				split = append(split, held, ls)
			}
			states = split
		}
	}
	return states
}

func (fa *funcAnalysis) handleDecl(states []*lockset, s *ast.DeclStmt) []*lockset {
	states = fa.applyCalls(states, s, nil)
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return states
	}
	var pairs []renamePair
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			if name.Name != "_" {
				pairs = append(pairs, renamePair{lhs: name.Name})
			}
		}
	}
	for i, ls := range states {
		states[i] = fa.renameState(ls, pairs, s.Pos())
	}
	return states
}

type renamePair struct {
	lhs    string
	rhsKey string // canonical key of the RHS ("" when untrackable)
	rhsVar string // RHS identifier name, for fact propagation
}

// renameState moves ls's keys through an assignment at pos. A lock whose
// variable the assignment overwrites, and does not rename, can no longer be
// released: it is reported as lost.
func (fa *funcAnalysis) renameState(ls *lockset, pairs []renamePair, pos token.Pos) *lockset {
	out := newLockset()
	overwritten := map[string]bool{}
	for _, p := range pairs {
		overwritten[p.lhs] = true
	}
	for k := range ls.locks {
		renamed := false
		for _, p := range pairs {
			if p.rhsKey != "" && (k == p.rhsKey || strings.HasPrefix(k, p.rhsKey+".")) {
				out.locks[p.lhs+k[len(p.rhsKey):]] = true
				renamed = true
				break
			}
		}
		switch {
		case renamed:
		case overwritten[root(k)]:
			fa.reportf(pos, "lock %s is lost: %s is assigned while it is held", k, root(k))
		default:
			out.locks[k] = true
		}
	}
	for v, known := range ls.facts {
		if !overwritten[v] {
			out.facts[v] = known
		}
	}
	for _, p := range pairs {
		if p.rhsVar != "" {
			if known, ok := ls.facts[p.rhsVar]; ok {
				out.facts[p.lhs] = known
			}
		}
	}
	return out
}

// filterEdge refines a state along a conditional edge: nil checks resolve
// conditionally-held locks, TryLock acquires on its true edge, and
// &&/|| decompose when the taken sense determines both operands.
func (fa *funcAnalysis) filterEdge(ls *lockset, cond ast.Expr, sense bool) (*lockset, bool) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return fa.filterEdge(ls, e.X, !sense)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if sense {
				ls, ok := fa.filterEdge(ls, e.X, true)
				if !ok {
					return nil, false
				}
				return fa.filterEdge(ls, e.Y, true)
			}
		case token.LOR:
			if !sense {
				ls, ok := fa.filterEdge(ls, e.X, false)
				if !ok {
					return nil, false
				}
				return fa.filterEdge(ls, e.Y, false)
			}
		case token.EQL, token.NEQ:
			other, ok := nilComparand(fa.info, e)
			if !ok {
				break
			}
			name := render(other)
			if name == "" {
				break
			}
			isNil := (e.Op == token.EQL) == sense
			if known, ok := ls.facts[name]; ok && known == isNil {
				return nil, false // contradiction: this edge is infeasible
			}
			ls.facts[name] = !isNil
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sense && versionMethod(analysis.CalleeOf(fa.info, e)) == "TryLock" {
			if key := render(sel.X); key != "" {
				ls.locks[key] = true
			}
		}
	}
	return ls, true
}

// nilComparand returns the non-nil side of an x ==/!= nil comparison.
func nilComparand(info *types.Info, e *ast.BinaryExpr) (ast.Expr, bool) {
	if isNilExpr(info, e.Y) {
		return e.X, true
	}
	if isNilExpr(info, e.X) {
		return e.Y, true
	}
	return nil, false
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}

// checkExit verifies one path's lockset against the function contract at a
// return site (or the implicit return at the closing brace, result nil). A
// returns-locked function holds no lock but its masstree:locked parameters
// on a nil return, and those and its result's lock on any other.
func (fa *funcAnalysis) checkExit(ls *lockset, pos token.Pos, result ast.Expr) {
	handed := ""
	if fa.facts.ReturnsLocked && result != nil && !isNilExpr(fa.info, result) {
		if known, ok := ls.facts[render(result)]; !ok || known {
			handed = fa.actualKey(result)
		}
	}
	held := map[string]bool{}
	for k := range ls.locks {
		if !fa.deferred[k] {
			held[k] = true
		}
	}
	var extra []string
	for k := range held {
		if !fa.expected[k] && k != handed {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fa.reportf(pos, "lock %s is not released on this return path", k)
	}
	if handed != "" && !held[handed] {
		fa.reportf(pos, "result %s is returned unlocked (masstree:returns-locked)", handed)
	}
	for k := range fa.expected {
		if !held[k] {
			fa.reportf(pos, "%s must be held at return (masstree:locked)", k)
		}
	}
}

func (fa *funcAnalysis) reportf(pos token.Pos, format string, args ...any) {
	key := fa.pass.Fset().Position(pos).String() + "|" + format + sprintArgs(args)
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	fa.pass.Reportf(pos, format, args...)
}

func sprintArgs(args []any) string {
	var b strings.Builder
	for _, a := range args {
		b.WriteByte('|')
		if s, ok := a.(string); ok {
			b.WriteString(s)
		}
	}
	return b.String()
}

// paramKey resolves a contract name to its canonical lock key using the
// parameter's (or receiver's) declared type.
func (fa *funcAnalysis) paramKey(fd *ast.FuncDecl, name string) string {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, f := range fields {
		for _, id := range f.Names {
			if id.Name != name {
				continue
			}
			if obj := fa.info.Defs[id]; obj != nil {
				return fa.actualTypeKey(name, obj.Type())
			}
		}
	}
	return ""
}

// actualKey computes the canonical lock key of a call argument.
func (fa *funcAnalysis) actualKey(e ast.Expr) string {
	if e == nil {
		return ""
	}
	base := render(e)
	if base == "" {
		return ""
	}
	tv, ok := fa.info.Types[e]
	if !ok {
		return ""
	}
	return fa.actualTypeKey(base, tv.Type)
}

// actualTypeKey appends ".h" when the value's lock lives in an embedded
// header field rather than on the type itself.
func (fa *funcAnalysis) actualTypeKey(base string, typ types.Type) string {
	if base == "" || typ == nil {
		return ""
	}
	t := typ
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if hasLockMethod(t) {
		return base
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "h" && hasLockMethod(f.Type()) {
				return base + ".h"
			}
		}
	}
	return ""
}

// hasLockMethod reports whether t's Lock is occ.Version's: t is one, or
// embeds one.
func hasLockMethod(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		return hasLockMethod(p.Elem())
	}
	if _, ok := t.(*types.Named); !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Lock")
	fn, _ := obj.(*types.Func)
	return versionMethod(fn) == "Lock"
}

func (fa *funcAnalysis) identType(id *ast.Ident) types.Type {
	if obj := fa.info.Defs[id]; obj != nil {
		return obj.Type()
	}
	if obj := fa.info.Uses[id]; obj != nil {
		return obj.Type()
	}
	return nil
}

// bindActuals maps a callee's receiver and parameter names to the caller's
// argument expressions.
func bindActuals(decl *ast.FuncDecl, call *ast.CallExpr) map[string]ast.Expr {
	m := map[string]ast.Expr{}
	if decl == nil {
		return m
	}
	if decl.Recv != nil && len(decl.Recv.List) > 0 && len(decl.Recv.List[0].Names) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			m[decl.Recv.List[0].Names[0].Name] = sel.X
		}
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if i < len(call.Args) {
				m[name.Name] = call.Args[i]
			}
			i++
		}
	}
	return m
}

// render prints an expression as a canonical lock key: identifiers and
// selector chains only; &x renders as x. Anything else is untrackable.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := render(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return render(e.X)
	case *ast.StarExpr:
		return render(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return render(e.X)
		}
	}
	return ""
}

func root(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}
