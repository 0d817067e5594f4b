// Package analysis is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast and go/types (the module is dependency-free by policy,
// so the x/tools driver and analysistest are reimplemented here in
// miniature).
//
// An Analyzer inspects typechecked packages and reports Diagnostics. The
// suite under internal/analysis/* encodes the repository's concurrency and
// allocation invariants — hand-over-hand border-lock discipline,
// allocation-free hot paths, scratch-buffer aliasing rules and WAL
// chaining — so that `go run ./cmd/masstree-lint ./...` proves at build
// time what the runtime tests can only sample. See DESIGN.md for the invariant catalog and doc.go for
// the annotation conventions.
//
// Deliberate exceptions are annotated in the source as
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a bare allow, an allow naming no analyzer of the run and a
// masstree: directive with a verb the suite does not define are each
// reported, as analyzer "lint".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one typechecked package: syntax plus type information, sharing
// one token.FileSet with every other package of the load.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Diagnostic is one finding, positioned inside a loaded file.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string

	// Packages restricts an analyzer to import paths with one of
	// these suffixes. Empty means every package. The test harness bypasses
	// the filter so fixtures need not mimic repository paths.
	Packages []string

	Run func(*Pass)
}

// AppliesTo reports whether the driver should run the analyzer on pkgPath.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, suf := range a.Packages {
		if pkgPath == suf || strings.HasSuffix(pkgPath, suf) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer execution on Pkg, with the full load in All (for
// cross-package fact lookup, e.g. annotations on a callee declared
// elsewhere).
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	All      []*Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Fset returns the load's shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Finding is a driver-level diagnostic: positioned, attributed to its
// analyzer, and carrying the suppression verdict.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string

	Suppressed bool   // an applicable //lint:allow covered it
	Reason     string // the allow's reason, when suppressed
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Run executes the analyzers over the load and returns every finding,
// suppressed ones included, sorted by position. Callers decide whether
// suppressed findings count (the CLI driver drops them; the test harness
// drops them so fixtures can exercise the allow path).
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	allows := collectAllows(pkgs, analyzers)

	emit := func(name string, diags []Diagnostic) {
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			f := Finding{Analyzer: name, Pos: pos, Message: d.Message}
			if reason, ok := allows.covers(name, pos); ok {
				f.Suppressed, f.Reason = true, reason
			}
			findings = append(findings, f)
		}
	}

	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs}
			a.Run(pass)
			emit(a.Name, pass.diags)
		}
	}

	// Malformed and stale directives are findings too: a bare allow, an
	// allow for an analyzer that no longer runs, or a misspelt contract
	// silently checks nothing, exactly the rot this suite exists to prevent.
	findings = append(findings, allows.bad...)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// allowSet indexes //lint:allow directives by file and line, and holds the
// findings against malformed or stale directives of either kind.
type allowSet struct {
	byFileLine map[string]map[int]allowDirective
	bad        []Finding
}

type allowDirective struct {
	analyzer string
	reason   string
}

// covers reports whether an allow for the analyzer sits on the finding's
// line or the line directly above it, in the same file.
func (s allowSet) covers(analyzer string, pos token.Position) (string, bool) {
	lines := s.byFileLine[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := lines[line]; ok && d.analyzer == analyzer {
			return d.reason, true
		}
	}
	return "", false
}

func collectAllows(pkgs []*Package, analyzers []*Analyzer) allowSet {
	s := allowSet{byFileLine: map[string]map[int]allowDirective{}}
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	lint := func(pos token.Position, format string, args ...any) {
		s.bad = append(s.bad, Finding{Analyzer: "lint", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if verb, _, ok := cutDirective(c.Text); ok {
						if !directiveVerbs[verb] {
							lint(pkg.Fset.Position(c.Pos()), "unknown directive //masstree:%s", verb)
						}
						continue
					}
					text, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						lint(pos, "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"")
						continue
					}
					if !running[fields[0]] {
						lint(pos, "//lint:allow names %s, which is not an analyzer of this run", fields[0])
						continue
					}
					lines := s.byFileLine[pos.Filename]
					if lines == nil {
						lines = map[int]allowDirective{}
						s.byFileLine[pos.Filename] = lines
					}
					lines[pos.Line] = allowDirective{
						analyzer: fields[0],
						reason:   strings.Join(fields[1:], " "),
					}
				}
			}
		}
	}
	return s
}
