// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against expectations written in the fixtures, in
// the manner of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live in testdata/src/<importpath>/ next to the analyzer's test.
// A line that should be flagged carries a trailing comment
//
//	// want "regexp" ["regexp" ...]
//
// with one regexp per expected diagnostic on that line (quoted or
// backquoted). A line whose own comment is the one under test (a
// //lint:allow or a masstree: directive) carries its expectation ahead of
// it instead, as /* want "regexp" */. Diagnostics and expectations must
// match one-to-one: an unmatched diagnostic and an unsatisfied expectation
// are both test failures. Findings suppressed by a well-formed //lint:allow are dropped
// before matching, so suppression fixtures simply carry no want.
package analysistest

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run loads the fixture packages at testdata/src/<path> for each path,
// applies the analyzer, and reports any mismatch between its diagnostics
// and the fixtures' want comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := load.Fixture("testdata/src", ".", paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}

	// Fixtures need not mimic repository import paths: bypass the filter.
	unscoped := *a
	unscoped.Packages = nil
	findings := analysis.Run(pkgs, []*analysis.Analyzer{&unscoped})

	wants := collectWants(t, pkgs)
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		if !wants.match(f) {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s: no diagnostic matched want %q", w.pos, w.re)
	}
}

type want struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byFileLine map[string]map[int][]*want
}

func (s wantSet) match(f analysis.Finding) bool {
	for _, w := range s.byFileLine[f.Pos.Filename][f.Pos.Line] {
		if !w.matched && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (s wantSet) unmatched() []*want {
	var out []*want
	for _, lines := range s.byFileLine {
		for _, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					out = append(out, w)
				}
			}
		}
	}
	return out
}

func collectWants(t *testing.T, pkgs []*analysis.Package) wantSet {
	t.Helper()
	s := wantSet{byFileLine: map[string]map[int][]*want{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						rest, ok = strings.CutPrefix(c.Text, "/* want ")
						rest = strings.TrimSuffix(rest, "*/")
					}
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, expr := range splitWant(rest) {
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
						}
						lines := s.byFileLine[pos.Filename]
						if lines == nil {
							lines = map[int][]*want{}
							s.byFileLine[pos.Filename] = lines
						}
						lines[pos.Line] = append(lines[pos.Line], &want{pos: pos, re: re})
					}
				}
			}
		}
	}
	return s
}

// splitWant parses the space-separated quoted or backquoted regexps of a
// want comment.
func splitWant(text string) []string {
	var out []string
	rest := strings.TrimSpace(text)
	for rest != "" {
		switch rest[0] {
		case '"':
			end := 1
			for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
				end++
			}
			if end >= len(rest) {
				return append(out, rest) // unterminated: surface as a bad regexp
			}
			if s, err := strconv.Unquote(rest[:end+1]); err == nil {
				out = append(out, s)
			} else {
				out = append(out, rest[:end+1])
			}
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return append(out, rest)
			}
			out = append(out, rest[1:end+1])
			rest = strings.TrimSpace(rest[end+2:])
		default:
			return out // trailing prose after the regexps: ignore
		}
	}
	return out
}
