// Command linkcheck validates intra-repository markdown links: every
// relative link target must exist, and a #fragment into a markdown file
// must match one of its headings (GitHub anchor rules). External links
// (http/https/mailto) are not fetched. A markdown file named in a Go comment
// (docs/PROTOCOL.md, README.md) must exist too, next to the Go file or from
// the repository root. It exits non-zero listing every broken link — the
// docs job of CI runs it over the whole repository.
//
// Usage: go run ./tools/linkcheck [root]
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links [text](target). Images and reference
// links are out of scope for this repository's docs.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingRE matches ATX headings.
var headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// anchorStrip removes everything GitHub drops when slugifying a heading.
var anchorStrip = regexp.MustCompile(`[^\p{L}\p{N}\s-]`)

// slug converts a heading to its GitHub anchor.
func slug(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	s = anchorStrip.ReplaceAllString(s, "")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

// anchors returns the set of heading anchors of a markdown file.
func anchors(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, m := range headingRE.FindAllStringSubmatch(string(data), -1) {
		out[slug(m[1])] = true
	}
	return out, nil
}

// external reports whether a link target leaves the repository.
func external(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:")
}

// checkFile validates every relative link in one markdown file and returns
// human-readable problems.
func checkFile(root, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if external(target) {
			continue
		}
		file, fragment, _ := strings.Cut(target, "#")
		resolved := path
		if file != "" {
			resolved = filepath.Join(filepath.Dir(path), file)
			rel, err := filepath.Rel(root, resolved)
			if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				problems = append(problems, fmt.Sprintf("%s: link %q escapes the repository", path, target))
				continue
			}
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q", path, target))
				continue
			}
		}
		if fragment != "" && strings.HasSuffix(strings.ToLower(resolved), ".md") {
			hs, err := anchors(resolved)
			if err != nil {
				return nil, err
			}
			if !hs[fragment] {
				problems = append(problems, fmt.Sprintf("%s: link %q points at a missing heading", path, target))
			}
		}
	}
	return problems, nil
}

// mdNameRE matches a markdown file name in prose: a path of word
// characters ending in .md.
var mdNameRE = regexp.MustCompile(`(?:\.\./)*[\w-]+(?:/[\w-]+)*\.md\b`)

// checkGoComments returns a problem for each markdown file a comment of one
// Go file names that exists neither beside the file nor from root.
func checkGoComments(root, path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var sc scanner.Scanner
	sc.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var problems []string
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			return problems, nil
		}
		if tok != token.COMMENT {
			continue
		}
		for _, name := range mdNameRE.FindAllString(lit, -1) {
			if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(filepath.Join(root, name)) {
				problems = append(problems, fmt.Sprintf("%s: comment names %s, which is no file", fset.Position(pos), name))
			}
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		check := checkFile
		switch {
		case strings.HasSuffix(d.Name(), ".go"):
			check = checkGoComments
		case !strings.HasSuffix(strings.ToLower(d.Name()), ".md"):
			return nil
		}
		ps, err := check(root, path)
		if err != nil {
			return err
		}
		checked++
		problems = append(problems, ps...)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken links in %d markdown and Go files\n", len(problems), checked)
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d markdown and Go files OK\n", checked)
}
