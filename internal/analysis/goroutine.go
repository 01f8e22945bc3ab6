package analysis

import "go/ast"

// Goroutine flags every go statement in simulation packages: a simulated
// RPC sent from a goroutine draws link streams, teaches routing tables and
// fills caches in scheduler order, so a run's costs depend on the CPU count.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "bans go statements outside cmd/; simulated RPCs run on the caller's goroutine, and pure fan-outs go through one suppressed helper",
	Run: func(pass *Pass) error {
		if matchesAny(pass.PkgPath, PlumbingPkgs) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement in simulation code; send simulated RPCs from the caller's goroutine (allowlisted: cmd/)")
				}
				return true
			})
		}
		return nil
	},
}
