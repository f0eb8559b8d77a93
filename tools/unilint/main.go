// Command unilint is the repository's invariant checker: a multichecker
// that runs the internal/analysis suite — durableack, lockorder,
// ctxpropagate, errsink — over package patterns, alongside the standard
// `go vet` passes. CI runs it as a required step; a non-empty finding set (or
// a malformed //lint:allow directive) fails the build.
//
// Usage:
//
//	go run ./tools/unilint [-vet=false] [-list] [packages]
//
// Packages default to ./... . Findings print as
// file:line:col: message [analyzer]. Suppress a reviewed finding in place
// with `//lint:allow <analyzer> <reason>` on the offending line or the line
// above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"unicore/internal/analysis"
	"unicore/internal/analysis/ctxpropagate"
	"unicore/internal/analysis/durableack"
	"unicore/internal/analysis/errsink"
	"unicore/internal/analysis/lockorder"
)

// suite is the full analyzer set unilint runs.
var suite = []*analysis.Analyzer{
	durableack.Analyzer,
	lockorder.Analyzer,
	ctxpropagate.Analyzer,
	errsink.Analyzer,
}

func main() {
	vet := flag.Bool("vet", true, "also run the standard `go vet` passes over the same patterns")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range suite {
			scope := "all packages"
			if len(a.Scope) > 0 {
				scope = strings.Join(a.Scope, ", ")
			}
			fmt.Printf("%-14s %s\n%14s   scope: %s\n", a.Name, a.Doc, "", scope)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "unilint: go vet: %v\n", err)
			failed = true
		}
	}

	pkgs, err := analysis.NewLoader().LoadAll(patterns...)
	if err != nil {
		fatal(err)
	}
	findings := 0
	for _, pkg := range pkgs {
		// The suite analyzes shipped sources; the checker tooling itself
		// (this driver, the analyzers, their fixtures) is exercised by its
		// own tests instead — skipping it keeps fixture-like shapes from
		// double-reporting.
		if path := pkg.Pkg.Path(); strings.HasPrefix(path, "unicore/internal/analysis") ||
			strings.HasPrefix(path, "unicore/tools/unilint") {
			continue
		}
		diags, err := analysis.Run(suite, pkg)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "unilint: %d finding(s)\n", findings)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("unilint: %d package(s) clean\n", len(pkgs))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: unilint [-vet=false] [-list] [packages]\n\n")
	fmt.Fprintf(os.Stderr, "Runs the repository invariant analyzers (and go vet) over the packages.\n")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unilint: %v\n", err)
	os.Exit(2)
}
