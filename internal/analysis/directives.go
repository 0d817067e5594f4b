package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The repository's machine-checked contract annotations. They live in doc
// comments (function and type declarations) or at the end of a statement's
// line, and are verified by the analyzers in this suite:
//
//	//masstree:locked n [m ...]     function contract: the named params (the
//	                                receiver counts, by its name) are locked
//	                                on entry and must still be locked at
//	                                every return (lockpair)
//	//masstree:unlocks n [m ...]    locked on entry, released on every path
//	                                by return (lockpair)
//	//masstree:returns-locked       the returned node, when non-nil, is
//	                                locked; callers must nil-check before
//	                                relying on it (lockpair)
//	//masstree:acquires n.h         statement annotation: this statement
//	                                acquires the named lock by some means
//	                                the analyzer cannot see (constructor
//	                                lock bits) (lockpair)
//	//masstree:releases n.h        statement annotation: this statement
//	                                releases the named lock (lockpair)
//	//masstree:noalloc              function contract: steady-state
//	                                execution performs zero heap
//	                                allocations; allocation sources inside
//	                                are flagged (noalloc)
//	//masstree:scratch              type contract: byte slices handed out
//	                                by this type alias reusable memory and
//	                                must not be stored past the next
//	                                reuse/Release (scratchalias)
//
// A masstree: directive with any other verb is itself a finding (see Run):
// a misspelt contract would otherwise switch its check off in silence.

// FuncFacts are the masstree: contract annotations of one function.
type FuncFacts struct {
	Locked        []string // locked on entry, locked at return
	Unlocks       []string // locked on entry, released at return
	ReturnsLocked bool
	NoAlloc       bool
}

// Empty reports whether the function carries no annotations.
func (f FuncFacts) Empty() bool {
	return len(f.Locked) == 0 && len(f.Unlocks) == 0 &&
		!f.ReturnsLocked && !f.NoAlloc
}

// FuncFactsOf parses the masstree: directives in a function's doc comment.
func FuncFactsOf(fd *ast.FuncDecl) FuncFacts {
	var facts FuncFacts
	if fd == nil || fd.Doc == nil {
		return facts
	}
	for _, c := range fd.Doc.List {
		verb, args, ok := cutDirective(c.Text)
		if !ok {
			continue
		}
		switch verb {
		case "locked":
			facts.Locked = append(facts.Locked, strings.Fields(args)...)
		case "unlocks":
			facts.Unlocks = append(facts.Unlocks, strings.Fields(args)...)
		case "returns-locked":
			facts.ReturnsLocked = true
		case "noalloc":
			facts.NoAlloc = true
		}
	}
	return facts
}

// LineDirective is a masstree: directive attached to a statement's line.
type LineDirective struct {
	Verb string // "acquires" or "releases"
	Args string
}

// LineDirectives maps line numbers of a file to the statement-level
// masstree: directives on them.
func LineDirectives(fset *token.FileSet, file *ast.File) map[int][]LineDirective {
	m := map[int][]LineDirective{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			verb, args, ok := cutDirective(c.Text)
			if !ok {
				continue
			}
			if verb != "acquires" && verb != "releases" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m[line] = append(m[line], LineDirective{Verb: verb, Args: strings.TrimSpace(args)})
		}
	}
	return m
}

// IsScratchType reports whether the type declaration carries
// //masstree:scratch, consulting both the TypeSpec's doc and the enclosing
// GenDecl's (a single-spec `type X struct{...}` attaches the comment to the
// GenDecl).
func IsScratchType(gd *ast.GenDecl, spec *ast.TypeSpec) bool {
	for _, doc := range []*ast.CommentGroup{spec.Doc, spec.Comment, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if verb, _, ok := cutDirective(c.Text); ok && verb == "scratch" {
				return true
			}
		}
	}
	return false
}

// directiveVerbs are the masstree: verbs the suite defines.
var directiveVerbs = map[string]bool{
	"locked": true, "unlocks": true, "returns-locked": true,
	"acquires": true, "releases": true, "noalloc": true, "scratch": true,
}

func cutDirective(text string) (verb, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//masstree:")
	if !ok {
		return "", "", false
	}
	verb, args, _ = strings.Cut(rest, " ")
	return verb, args, true
}

// FuncDecls maps every declared function and method in the load to its
// syntax, so analyzers can read a callee's contract annotations across
// package boundaries (all repository packages are loaded from source).
func FuncDecls(pkgs []*Package) map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// CalleeOf resolves a call expression to the *types.Func it invokes, or nil
// for calls through function values, builtins, and conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
