// Command experiments prints every table of the reproduction, each under
// the paper claim it tests (the registry's Claim field). At seed 1 the
// tables equal internal/experiments/testdata/<ID>.golden, apart from
// E9's host-timed columns.
//
// Usage:
//
//	experiments -exp all          # run everything
//	experiments -exp E5           # one experiment
//	experiments -list             # list experiments
//	experiments -exp E5 -seed 7   # change the deterministic seed
//	experiments -exp E14          # serving tier: pool size × hedging × deadlines
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (E1..E19) or 'all'")
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %q\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    paper claim: %q\n\n", e.Claim)
		start := time.Now()
		for _, table := range e.Run(*seed) {
			fmt.Println(table.String())
		}
		fmt.Printf("    (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
