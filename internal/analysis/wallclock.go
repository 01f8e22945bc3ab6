package analysis

import (
	"go/ast"
	"go/types"
)

// PlumbingPkgs lists import-path prefixes exempt from the wallclock and
// goroutine analyzers. Command binaries legitimately touch the host clock
// and start goroutines for HTTP plumbing (uptime counters, progress
// printing, servers, load generators); everything else runs in simulated
// time, where vclock and netsim cost accounting are the only clocks.
var PlumbingPkgs = []string{"repro/cmd/"}

// wallclockBanned maps the time-package functions that read or schedule on
// the host clock to the reason each is forbidden in simulation code.
var wallclockBanned = map[string]string{
	"Now":       "reads the host clock",
	"Since":     "reads the host clock",
	"Until":     "reads the host clock",
	"After":     "schedules on the host clock",
	"AfterFunc": "schedules on the host clock",
	"Tick":      "schedules on the host clock",
	"NewTimer":  "schedules on the host clock",
	"NewTicker": "schedules on the host clock",
	"Sleep":     "blocks on the host clock",
}

// Wallclock flags host-clock reads and timers in simulation packages.
//
// The simulation's only notion of time is the vector clock advanced by
// chain rounds and the netsim Cost latencies folded per wave. A time.Now in
// a simulation package makes an experiment's output depend on host
// scheduling, which breaks the byte-identical-per-seed contract. time.Time
// and time.Duration values remain fine — only the functions that sample or
// schedule on the real clock are banned.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "bans time.Now/Since/After and friends outside cmd/ plumbing; simulated time comes from vclock and netsim costs",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	if matchesAny(pass.PkgPath, PlumbingPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			reason, banned := wallclockBanned[sel.Sel.Name]
			if !banned {
				return true
			}
			obj := pass.Info.ObjectOf(sel.Sel)
			if objectPkgPath(obj) != "time" {
				return true
			}
			// Methods like time.Time.After compare values; only the
			// package-level functions touch the host clock.
			if fn, ok := obj.(*types.Func); !ok || fn.Signature().Recv() != nil {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s %s; simulation packages must take time from vclock/netsim (allowlisted: cmd/)", sel.Sel.Name, reason)
			return true
		})
	}
	return nil
}
