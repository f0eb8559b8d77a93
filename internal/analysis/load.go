package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package, ready for analyzers.
type Package struct {
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the package's non-test syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checker facts for Files.
	Info *types.Info
	// Dir is the directory the package was loaded from.
	Dir string
}

// Loader parses and type-checks package directories. Every package outside
// the standard library is checked from source exactly once per loader, and
// every import of it resolves to that one check, so an object is the same
// *types.Object in every package that uses it. The standard library is read
// from the export data the go command builds, once per loader as well.
type Loader struct {
	// Fset is the file set shared by every package this loader returns.
	Fset *token.FileSet

	// Dir is where the go command runs to resolve patterns and imports;
	// empty means the current directory.
	Dir string

	std    types.Importer
	listed map[string]listed
	pkgs   map[string]*Package
}

// listed is what the go command says about one package.
type listed struct {
	dir, export string
	std         bool
}

// NewLoader returns a loader that resolves imports through the go command
// run in the current directory. It needs no network access: the standard
// library's export data comes from the local build cache.
func NewLoader() *Loader {
	l := &Loader{Fset: token.NewFileSet(), listed: map[string]listed{}, pkgs: map[string]*Package{}}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := l.listed[path]
		if !ok || p.export == "" {
			return nil, fmt.Errorf("analysis: no export data for %s", path)
		}
		return os.Open(p.export)
	})
	return l
}

// LoadAll type-checks every package matching the patterns, with its
// dependencies first, and returns the matching ones in `go list` order.
func (l *Loader) LoadAll(patterns ...string) ([]*Package, error) {
	roots, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(roots))
	for _, path := range roots {
		pkg, err := l.Load(l.listed[path].dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Load parses the non-test Go files of the package in dir and type-checks
// them under the given import path, once per loader. Build constraints are
// honored; test files are excluded (analyzers check shipped code).
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, build.ImportComment)
	if err != nil {
		return nil, fmt.Errorf("analysis: listing %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{Fset: l.Fset, Files: files, Pkg: pkg, Info: info, Dir: dir}
	l.pkgs[importPath] = p
	return p, nil
}

// Import resolves one import, making the loader the types.Importer of every
// package it checks: a package this loader has checked, the standard
// library from export data, or any other package from source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Pkg, nil
	}
	if _, ok := l.listed[path]; !ok {
		if _, err := l.list(path); err != nil {
			return nil, err
		}
	}
	p := l.listed[path]
	if p.std {
		return l.std.Import(path)
	}
	pkg, err := l.Load(p.dir, path)
	if err != nil {
		return nil, err
	}
	return pkg.Pkg, nil
}

// list records what the go command says about the packages matching the
// patterns and all their dependencies, and returns the matching ones.
func (l *Loader) list(patterns ...string) ([]string, error) {
	args := append([]string{"list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{.Standard}}\t{{.DepOnly}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("analysis: unexpected go list output %q", line)
		}
		l.listed[f[0]] = listed{dir: f[1], export: f[2], std: f[3] == "true"}
		if f[4] == "false" {
			roots = append(roots, f[0])
		}
	}
	return roots, nil
}
