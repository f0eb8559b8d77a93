// Command docscheck fails when an exported identifier in the given packages
// lacks a doc comment. CI runs it over the packages whose godoc is part of
// the repository's documentation contract (internal/pool, internal/broker,
// internal/gateway, internal/events, internal/client, internal/staging,
// internal/telemetry, internal/controller, internal/deploy,
// internal/analysis...); a declaration group's comment covers its members,
// as godoc renders it.
//
// Usage: go run ./tools/docscheck <package dir>...
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// missing collects the undocumented exported identifiers of one package
// directory (test files excluded).
func missing(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && !groupDoc {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || groupDoc {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <package dir>...")
		os.Exit(2)
	}
	var problems []string
	for _, dir := range os.Args[1:] {
		ps, err := missing(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d undocumented exported identifiers\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %s fully documented\n", strings.Join(os.Args[1:], " "))
}
