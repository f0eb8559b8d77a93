// Package analysistest runs an analyzer over a fixture package and compares
// its findings against expectations written in the fixture source, in the
// style of golang.org/x/tools/go/analysis/analysistest. A fixture line that
// should be flagged carries a trailing comment
//
//	// want "regexp"
//
// where the quoted Go string is a regular expression the diagnostic message
// must match. Fixtures live under testdata/ (ignored by the go tool) and may
// import real repository packages; they are type-checked with the same
// loader the unilint driver uses, and //lint:allow
// suppression is applied before matching, so fixtures exercise the
// suppression path too.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"unicore/internal/analysis"
)

// loader is shared across Run calls within one test binary so repository
// dependencies (protocol, journal, ...) are type-checked once.
var loader = analysis.NewLoader()

// want is one expectation parsed from a fixture comment.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir (conventionally
// "testdata/src/<name>" relative to the test), applies the analyzer, filters
// //lint:allow directives, and reports any mismatch between diagnostics and
// the fixture's want comments as test failures.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, err := loader.Load(dir, "fixture/"+a.Name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	diags = analysis.Filter(diags, analysis.Directives(pkg.Fset, pkg.Files), map[string]bool{a.Name: true})

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := d.Pos.Filename + ":" + strconv.Itoa(d.Pos.Line)
		w := match(wants[key], d.Message)
		if w == nil {
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer)
			continue
		}
		w.matched = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("no diagnostic at %s matching %q", key, w.re)
			}
		}
	}
}

// match returns the first unmatched expectation whose regexp matches msg.
func match(ws []*want, msg string) *want {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses every `// want "re"` comment, keyed by file:line.
func collectWants(t *testing.T, pkg *analysis.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				lit := strings.TrimSpace(m[1])
				s, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s: bad want expectation %s: %v", pkg.Fset.Position(c.Pos()), lit, err)
				}
				re, err := regexp.Compile(s)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), s, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := pos.Filename + ":" + strconv.Itoa(pos.Line)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}
