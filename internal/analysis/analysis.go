// Package analysis is a self-contained skeleton of the go/analysis model,
// built only on the standard library (go/ast, go/types, and the gc
// importer's export data for the standard library). The repository's invariant checkers — the durable-ack,
// lock-order, version-gating, context-propagation and error-sink analyzers
// under internal/analysis/... — plug into it, and tools/unilint drives it
// over package patterns. The vendored golang.org/x/tools module is not a
// dependency of this repository, so the subset of the go/analysis API the
// checkers need (Analyzer, Pass, diagnostics, fixture tests) is reimplemented
// here; the shapes mirror the upstream package so the analyzers could be
// ported to it mechanically.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker: a name (used in diagnostics and
// //lint:allow directives), user-facing documentation, an optional import
// path scope, and the function that inspects one package.
type Analyzer struct {
	// Name identifies the analyzer in output and suppression directives.
	// It must be a single lower-case word.
	Name string
	// Doc is the one-paragraph description printed by unilint -help.
	Doc string
	// Scope restricts the analyzer to packages whose import path starts
	// with one of these prefixes. Empty means every package. The driver
	// applies Scope only to packages inside this module, so analysistest
	// fixtures (whose synthetic import paths match no prefix) still run.
	Scope []string
	// Run inspects one loaded package and reports findings through the
	// pass. A non-nil error aborts the whole unilint run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// InScope reports whether the analyzer applies to the given import path.
// Paths outside this module (fixtures, scratch packages) are always in scope.
func (a *Analyzer) InScope(importPath string) bool {
	if len(a.Scope) == 0 || !strings.HasPrefix(importPath, "unicore/") {
		return true
	}
	for _, p := range a.Scope {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// go/analysis.Pass.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the pass.
	Fset *token.FileSet
	// Files holds the parsed syntax trees of the package (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker facts for Files.
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	// Pos is the resolved source position of the finding.
	Pos token.Position
	// Analyzer names the checker that produced the finding ("unilint" for
	// malformed suppression directives).
	Analyzer string
	// Message is the human-readable description.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// RunAnalyzer applies a single analyzer to a loaded package and returns its
// raw diagnostics; //lint:allow suppression is not applied here (see Filter).
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Pkg.Path(), err)
	}
	return pass.diags, nil
}

// Run applies every in-scope analyzer to the package, filters the results
// through the package's //lint:allow directives, and returns the surviving
// diagnostics sorted by position. The directive validator accepts exactly the
// names of the analyzers passed in.
func Run(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.InScope(pkg.Pkg.Path()) {
			continue
		}
		ds, err := RunAnalyzer(a, pkg)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	diags = Filter(diags, Directives(pkg.Fset, pkg.Files), known)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Named returns the named type behind t (unwrapping pointers and aliases in
// any nesting order, so a pointer-to-alias like *unicore.JournalStore
// resolves to journal.Store), or nil if t is not a named type.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (behind pointers/aliases) is the named type
// path.name.
func IsNamed(t types.Type, path, name string) bool {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// Receiver returns the static type of the receiver expression of a method
// call (the x in x.M(...)), or nil when call is not a method call.
func Receiver(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		return s.Recv()
	}
	return nil
}

// IsMethodCall reports whether call invokes one of the named methods on a
// value whose pointer-stripped type is path.typeName.
func IsMethodCall(info *types.Info, call *ast.CallExpr, path, typeName string, methods ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := Receiver(info, call)
	if recv == nil || !IsNamed(recv, path, typeName) {
		return false
	}
	for _, m := range methods {
		if sel.Sel.Name == m {
			return true
		}
	}
	return false
}

// CalleeFunc returns the declared function or method object a call resolves
// to — the generic one for a call of an instantiation, explicit or inferred —
// or nil for calls through function values, conversions and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.IndexExpr:
		return CalleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return CalleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// IsPkgFunc reports whether call invokes the package-level function
// path.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	f := CalleeFunc(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == path && f.Name() == name
}

// CalleeName returns the syntactic name of the called function or method
// ("Append" for sp.Append(...), "admit" for admit(...)); empty for indirect
// calls through non-selector expressions.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
