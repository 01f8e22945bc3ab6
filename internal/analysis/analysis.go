// Package analysis is detlint's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader and a
// multichecker runner, built only on the standard library's go/ast,
// go/parser, go/types and go/importer.
//
// The framework exists because this repository's correctness contract is
// *determinism*: given a seed, every experiment, soak and serving wave must
// be byte-identical run over run. Each analyzer in this package encodes one
// invariant that, when violated, has historically broken that contract at
// runtime (map-order iteration, wall-clock reads, global RNG draws,
// swallowed DHT errors, discarded netsim costs, simulated RPCs sent from
// goroutines). detlint moves those failures from "a soak flaked" to "the
// build failed".
//
// See docs/static-analysis.md for the analyzer catalogue and the
// //detlint:ignore suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors the x/tools go/analysis
// Analyzer shape so the checks could migrate to the upstream driver if the
// dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:ignore directives. It must be a single lowercase word.
	Name string

	// Doc is a one-paragraph description: the invariant the analyzer
	// guards and why violating it breaks determinism or cost accounting.
	Doc string

	// Run performs the check over one package and reports findings via
	// pass.Report. It must not retain the pass after returning.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// PkgPath is the import path of the package under analysis (the
	// module-qualified path, e.g. "repro/internal/core").
	PkgPath string

	diags *[]Diagnostic
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf is the common path: report a finding at pos with a formatted
// message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string

	// Suppressed is set by the runner when an in-scope
	// //detlint:ignore directive covers the finding.
	Suppressed bool
	// SuppressReason carries the directive's reason when Suppressed.
	SuppressReason string
}

// All returns the full detlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Maprange, Wallclock, RNGDiscipline, Errsink, Costdrop, Goroutine}
}
