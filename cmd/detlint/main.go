// Command detlint statically enforces the repository's determinism and
// cost-accounting contract: sorted map iteration where order leaks,
// simulated time only (no wall clock) outside cmd/, seeded xrand streams
// only (no math/rand), no swallowed dht/store/chain errors, no dropped
// netsim.Cost values, and no go statements outside cmd/.
//
// Usage:
//
//	detlint [-v] [packages]
//
// Package patterns follow the go tool's shape: "./..." analyzes every
// package under the current module, "./internal/..." a subtree, and a
// plain directory path analyzes that one package. With no arguments it
// defaults to "./...". Test files are not analyzed.
//
// Findings are suppressed by an in-source directive carrying a mandatory
// reason:
//
//	//detlint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. Reasonless, unknown-analyzer
// and stale (non-suppressing) directives are themselves findings, and the
// run summary always prints the suppression count per analyzer, so the
// pile of exceptions stays visible in every CI log.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	verbose := flag.Bool("v", false, "list suppressed findings too")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: detlint [-v] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	loader, modPath, err := analysis.NewModuleLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	root := loader.Roots[modPath]

	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}

	var pkgs []*analysis.Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			fmt.Fprintf(os.Stderr, "detlint: %s is outside module %s\n", dir, modPath)
			return 2
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(importPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	runner := &analysis.Runner{Analyzers: analysis.All()}
	res, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}

	for _, d := range res.Findings {
		pos := loader.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: [%s] %s\n", relTo(cwd, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if *verbose {
		for _, d := range res.Suppressed {
			pos := loader.Fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: [%s, suppressed: %s] %s\n", relTo(cwd, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.SuppressReason, d.Message)
		}
	}
	fmt.Println(res.Summary())
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// expandPatterns resolves go-style package patterns to package directories.
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(cwd, rest)
			sub, err := analysis.PackageDirs(base)
			if err != nil {
				return nil, err
			}
			add(sub...)
			continue
		}
		dir := filepath.Join(cwd, pat)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("no such package directory: %s", pat)
		}
		add(dir)
	}
	return dirs, nil
}

// relTo renders a path relative to base for compact diagnostics.
func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
