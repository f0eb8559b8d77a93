// Package ctxpropagate enforces context threading in the request-path tiers
// (internal/client, internal/gateway, internal/pool,
// internal/federation): a function that was
// handed a context.Context must not mint a fresh context.Background() or
// context.TODO() — doing so detaches the work from the caller's
// cancellation and deadline, which is how a client abort stops long-polls
// and staged transfers (PR 4/5).
//
// Function literals inherit the judgment of their enclosing function: a
// closure inside a ctx-carrying function still has the caller's ctx in
// scope. Root-level functions with no ctx parameter (the documented
// non-context wrappers like JPA.FetchResources) are exempt.
package ctxpropagate

import (
	"go/ast"

	"unicore/internal/analysis"
)

// Analyzer flags context.Background()/TODO() where a caller context is in
// scope.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc:  "report context.Background/TODO calls in functions that already have a caller context in scope",
	Scope: []string{
		"unicore/internal/client",
		"unicore/internal/federation",
		"unicore/internal/gateway",
		"unicore/internal/pool",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			check(pass, fd.Body, hasCtxParam(pass, fd.Type))
		}
	}
	return nil
}

// check walks a function body; inScope says whether a caller ctx is visible.
func check(pass *analysis.Pass, body *ast.BlockStmt, inScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			check(pass, n.Body, inScope || hasCtxParam(pass, n.Type))
			return false
		case *ast.CallExpr:
			if !inScope {
				return true
			}
			for _, name := range []string{"Background", "TODO"} {
				if analysis.IsPkgFunc(pass.TypesInfo, n, "context", name) {
					pass.Reportf(n.Pos(),
						"context.%s() where the caller's context is in scope; propagate the ctx parameter instead", name)
				}
			}
		}
		return true
	})
}

// hasCtxParam reports whether the signature declares a context.Context
// parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		if analysis.IsNamed(pass.TypesInfo.TypeOf(p.Type), "context", "Context") {
			return true
		}
	}
	return false
}
