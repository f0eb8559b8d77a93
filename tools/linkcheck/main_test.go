package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoCommentsNameRealFiles: a markdown name in a Go comment resolves
// beside the Go file or from the root; one that names no file is reported
// with its line, and a name in a string literal is not a comment's.
func TestGoCommentsNameRealFiles(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"README.md", "docs/PROTOCOL.md", "pkg/NOTES.md"} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src := `// Package pkg: see README.md, docs/PROTOCOL.md, ../docs/PROTOCOL.md and NOTES.md.
package pkg

// The index lives in DESIGN.md.
var name = "MISSING.md"

/* and in
   docs/EXPERIMENTS.md */
`
	path := filepath.Join(root, "pkg", "pkg.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkGoComments(root, path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	if len(problems) != 2 || !strings.Contains(got, "pkg.go:4:1: comment names DESIGN.md") ||
		!strings.Contains(got, "pkg.go:7:1: comment names docs/EXPERIMENTS.md") {
		t.Errorf("problems:\n%s\nwant DESIGN.md at line 4 and docs/EXPERIMENTS.md at line 7, nothing else", got)
	}
}
