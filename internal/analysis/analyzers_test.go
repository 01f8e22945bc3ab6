package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer is exercised against a fixture package that must both fire
// on every want-comment line and stay silent everywhere else; the harness
// fails on extra and missing diagnostics alike.

func TestMaprange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Maprange, "maprange")
}

func TestWallclock(t *testing.T) {
	// The second fixture sits under the repro/cmd/ allowlist and has no
	// want comments: the analyzer must not fire in command plumbing.
	analysistest.Run(t, analysistest.TestData(), analysis.Wallclock, "wallclock", "repro/cmd/plumbing")
}

func TestRNGDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.RNGDiscipline, "rngdiscipline")
}

func TestErrsink(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Errsink, "errsink")
}

func TestCostdrop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Costdrop, "costdrop")
}

func TestGoroutine(t *testing.T) {
	// repro/cmd/plumbing starts a goroutine and has no want comments.
	analysistest.Run(t, analysistest.TestData(), analysis.Goroutine, "goroutine", "repro/cmd/plumbing")
}
